"""Pluggable kernel backends for the measured serving hot paths.

Public surface:

* :data:`~repro.backend.base.KERNELS` / :class:`KernelBackend` — the
  hot-kernel contract.
* :func:`use_backend` / :func:`resolve_backend` / :func:`get_backend` —
  selection (``--backend`` flags land here).
* :func:`override` — the per-call dispatch hook the hot modules consult.

:mod:`repro.backend.parallel` (the multiprocessing pool) is imported
lazily by the engine, never here, to keep this package import-light and
cycle-free.
"""

from .base import KERNELS, KernelBackend
from .dispatch import active_overrides, override
from .registry import (
    DEFAULT_BACKEND,
    backend_names,
    get_backend,
    kernel_defaults,
    register_backend,
    resolve_backend,
    use_backend,
)

__all__ = [
    "KERNELS",
    "KernelBackend",
    "DEFAULT_BACKEND",
    "active_overrides",
    "backend_names",
    "get_backend",
    "kernel_defaults",
    "override",
    "register_backend",
    "resolve_backend",
    "use_backend",
]
