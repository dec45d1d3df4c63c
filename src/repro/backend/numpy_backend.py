"""The ``numpy`` (default) and ``parallel`` backend declarations.

Both run the canonical numpy kernels — :class:`NumpyBackend` is the
bit-parity reference implementation (today's measured hot paths), and
:class:`ParallelBackend` keeps those exact kernels but additionally
marks the run for multi-core engine dispatch: the
:class:`~repro.engine.MultiSessionEngine` fans different sessions' ray
bundles out to the persistent worker pool in
:mod:`repro.backend.parallel`.  Because each pool worker renders with
the same deterministic numpy kernels over bit-identical shared field
tables, ``parallel`` keeps the exact-parity contract.
"""

from __future__ import annotations

from .base import KernelBackend

__all__ = ["NumpyBackend", "ParallelBackend"]


class NumpyBackend(KernelBackend):
    """Canonical single-threaded numpy kernels (the parity reference)."""

    name = "numpy"
    description = "single-threaded numpy hot kernels (default; reference)"


class ParallelBackend(KernelBackend):
    """Numpy kernels + multiprocessing fan-out of session ray bundles.

    Kernel-wise this is :class:`NumpyBackend`; the difference lives in
    the engine, which dispatches each deterministic session bundle to a
    pool worker (``engine_workers`` of them) holding the baked field
    tables in shared memory.  Stochastic (jittered-sampler) sessions
    stay on the main process so their RNG stream is untouched.
    """

    name = "parallel"
    description = ("numpy kernels; sessions fan out to a persistent "
                   "multiprocessing pool (see --engine-workers)")
    # Workers used when the caller enables the backend without an
    # explicit --engine-workers count.
    default_workers = 2
