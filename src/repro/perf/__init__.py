"""Profiling and microbenchmark subsystem (``repro.perf``).

Two layers, imported as submodules:

* :mod:`repro.perf.bench` — the microbenchmark registry behind
  ``cli bench`` (field query, warp gather/scatter, disocclusion
  classification, volume-render compositing, engine round, cluster
  tick, end-to-end frames/s) and the ``BENCH_perf.json`` payload.  Its
  per-section wall split comes from the section timer of
  :mod:`repro.obs` (``nerf.*``/``sparw.*``/``engine.round`` sections
  that product hot paths annotate unconditionally).
* :mod:`repro.perf.reference` — the scalar/unfused predecessors of
  every vectorized kernel, kept runnable for equivalence tests
  (``tests/perf/test_equivalence.py``) and for the harness's
  speedup-vs-baseline measurements.

Only the dependency-free environment fingerprint is re-exported here:
:mod:`repro.perf.bench` and :mod:`repro.perf.compare` import large
parts of the codebase and must be imported as submodules.
"""

from .envinfo import environment_fingerprint

__all__ = ["environment_fingerprint"]
