"""Backend registry: lookup and activation.

The registry is the single place that knows which
:class:`~repro.backend.base.KernelBackend` implementations exist.
``--backend`` values resolve here; :func:`use_backend` is the one
sanctioned writer of the dispatch override table (install on enter,
restore on exit), so nesting and exceptions are safe.
"""

from __future__ import annotations

from contextlib import contextmanager

from . import dispatch
from .base import KERNELS, KernelBackend
from .numpy_backend import NumpyBackend, ParallelBackend

__all__ = [
    "DEFAULT_BACKEND",
    "backend_names",
    "get_backend",
    "register_backend",
    "resolve_backend",
    "use_backend",
]

# The backend active when no --backend flag is given; also the parity
# reference every other backend is tested against.
DEFAULT_BACKEND = "numpy"

_REGISTRY: dict[str, KernelBackend] = {}


def register_backend(backend: KernelBackend) -> KernelBackend:
    """Add a backend instance to the registry (last write wins)."""
    _REGISTRY[backend.name] = backend
    return backend


register_backend(NumpyBackend())
register_backend(ParallelBackend())


def backend_names() -> tuple:
    """All registered backend names."""
    return tuple(sorted(_REGISTRY))


def get_backend(name: str) -> KernelBackend:
    """The registered backend called ``name``.

    Raises ``KeyError`` naming the valid choices — the same UX as the
    unknown-figure / unknown-kernel CLI errors.
    """
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; registered: {backend_names()}"
        ) from None


def resolve_backend(name: str | None) -> KernelBackend:
    """``get_backend``, with ``None`` meaning :data:`DEFAULT_BACKEND`."""
    return get_backend(DEFAULT_BACKEND if name is None else name)


@contextmanager
def use_backend(name: str | None):
    """Activate a backend's kernel overrides for the ``with`` body.

    Yields the resolved :class:`KernelBackend`.  The previous override
    table is restored on exit, so activations nest.
    """
    backend = resolve_backend(name)
    previous = dispatch.install(backend.overrides())
    try:
        yield backend
    finally:
        dispatch.install(previous)


def kernel_defaults() -> dict:
    """Canonical numpy callable for every :data:`KERNELS` entry.

    Used by parity tests to call the reference implementation directly
    regardless of the installed override table.
    """
    base = _REGISTRY[DEFAULT_BACKEND]
    return {name: base.kernel(name) for name in KERNELS}
