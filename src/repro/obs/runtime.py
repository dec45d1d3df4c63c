"""Activation backbone shared by section timing, tracing, and metrics.

One module-global :class:`Observation` (timer + tracer + metrics, each
optional) is the sole coupling point between product code and
observability.  Library layers call the guarded helpers here
(:func:`section`, :func:`metric_inc`, :func:`metric_observe`,
:func:`metric_set`, :func:`current_tracer`); each one is a single
global read plus a ``None`` check when nothing is active, so the
disabled fast path costs nothing measurable (bounded by
``tests/obs/test_obs_runtime.py`` and ``tests/obs/test_timer.py``).

One activation turns on any mix of sinks::

    obs = Observation(timer=Timer(), tracer=Tracer(),
                      metrics=MetricsRegistry())
    with activate(obs):
        run_serve(...)
    obs.tracer.write(path)
    print(obs.timer.report())

Section timing is one sink of the observation: hot paths are annotated
once, unconditionally, with ``with section("nerf.sample"): ...``, and
the wall time lands in the active :class:`Timer`.  Re-entering a
section name that is already open (recursion, a helper annotated with
its caller's name) only accumulates on the outermost exit, so nested
entries never double-count wall time.

This module deliberately imports nothing from ``repro`` — it sits
below every instrumented layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any

__all__ = ["SectionStats", "Section", "Timer", "Observation", "activate",
           "current", "current_tracer", "current_metrics", "section",
           "metric_inc", "metric_observe", "metric_set"]


@dataclass
class SectionStats:
    """Accumulated wall-clock statistics for one named section."""

    calls: int = 0
    total_ns: int = 0
    min_ns: int = 0
    max_ns: int = 0

    @property
    def mean_ns(self) -> float:
        """Mean nanoseconds per call (0.0 before any call)."""
        return self.total_ns / self.calls if self.calls else 0.0

    def add(self, elapsed_ns: int) -> None:
        """Fold one measured call into the running statistics."""
        if self.calls == 0:
            self.min_ns = self.max_ns = elapsed_ns
        else:
            self.min_ns = min(self.min_ns, elapsed_ns)
            self.max_ns = max(self.max_ns, elapsed_ns)
        self.calls += 1
        self.total_ns += elapsed_ns


class Section:
    """Context manager timing one ``with`` block into a :class:`Timer`."""

    __slots__ = ("_timer", "_name", "_start", "_outermost")

    def __init__(self, timer: "Timer", name: str):
        self._timer = timer
        self._name = name
        self._start = 0
        self._outermost = False

    def __enter__(self) -> "Section":
        self._outermost = self._timer._enter(self._name)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> None:
        elapsed = time.perf_counter_ns() - self._start
        self._timer._exit(self._name, elapsed, self._outermost)


class Timer:
    """Accumulates wall-clock time per named section."""

    def __init__(self):
        self._stats: dict[str, SectionStats] = {}
        # Open-entry count per section name; re-entrant entries only
        # accumulate when the outermost with-block exits.
        self._depth: dict[str, int] = {}

    def _enter(self, name: str) -> bool:
        """Register one entry of ``name``; True iff it is the outermost."""
        depth = self._depth.get(name, 0)
        self._depth[name] = depth + 1
        return depth == 0

    def _exit(self, name: str, elapsed_ns: int, outermost: bool) -> None:
        """Register one exit; only the outermost one accumulates."""
        depth = self._depth.get(name, 1) - 1
        if depth <= 0:
            self._depth.pop(name, None)
        else:
            self._depth[name] = depth
        if outermost:
            self.record(name, elapsed_ns)

    def record(self, name: str, elapsed_ns: int) -> None:
        """Fold one externally measured duration into section ``name``."""
        stats = self._stats.get(name)
        if stats is None:
            stats = self._stats[name] = SectionStats()
        stats.add(elapsed_ns)

    def stats(self) -> dict:
        """``{section name: SectionStats}`` snapshot (live objects)."""
        return dict(self._stats)

    def total_ns(self, name: str) -> int:
        """Total nanoseconds recorded for ``name`` (0 if never entered)."""
        stats = self._stats.get(name)
        return stats.total_ns if stats is not None else 0

    def reset(self) -> None:
        """Drop every accumulated section (open-entry depth included)."""
        self._stats.clear()
        self._depth.clear()

    def report(self) -> list:
        """Sections as dict rows (descending total time), for tables/JSON."""
        return [{
            "section": name,
            "calls": stats.calls,
            "total_ms": stats.total_ns / 1e6,
            "mean_us": stats.mean_ns / 1e3,
            "min_us": stats.min_ns / 1e3,
            "max_us": stats.max_ns / 1e3,
        } for name, stats in sorted(self._stats.items(),
                                    key=lambda kv: -kv[1].total_ns)]


@dataclass
class Observation:
    """The bundle of sinks one ``activate()`` turns on.

    Any field may be ``None``; helpers for that facet stay no-ops.
    ``tracer`` and ``metrics`` are typed ``Any`` to keep this module
    import-free — in practice a :class:`repro.obs.tracer.Tracer` and a
    :class:`repro.obs.metrics.MetricsRegistry`.
    """

    timer: Timer | None = None
    tracer: Any = None
    metrics: Any = None


_ACTIVE: Observation | None = None


class _NullSection:
    """Do-nothing context manager returned when no timer is active."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SECTION = _NullSection()


@contextmanager
def activate(obs: Observation):
    """Make ``obs`` the active observation for the dynamic extent.

    Nests: the previous observation (if any) is restored on exit.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = obs
    try:
        yield obs
    finally:
        _ACTIVE = previous


def current() -> Observation | None:
    """The active observation, or ``None``."""
    return _ACTIVE


def current_tracer():
    """The active tracer, or ``None`` (the disabled fast path)."""
    obs = _ACTIVE
    return obs.tracer if obs is not None else None


def current_metrics():
    """The active metrics registry, or ``None``."""
    obs = _ACTIVE
    return obs.metrics if obs is not None else None


def section(name: str):
    """Context manager timing ``name`` on the active timer (else no-op)."""
    obs = _ACTIVE
    if obs is None or obs.timer is None:
        return _NULL_SECTION
    return Section(obs.timer, name)


def metric_inc(name: str, amount: int = 1) -> None:
    """Bump counter ``name`` on the active registry (else no-op)."""
    obs = _ACTIVE
    if obs is not None and obs.metrics is not None:
        obs.metrics.inc(name, amount)


def metric_observe(name: str, value: float) -> None:
    """Observe ``value`` into histogram ``name`` (else no-op)."""
    obs = _ACTIVE
    if obs is not None and obs.metrics is not None:
        obs.metrics.observe(name, value)


def metric_set(name: str, value: float) -> None:
    """Set gauge ``name`` to ``value`` (else no-op)."""
    obs = _ACTIVE
    if obs is not None and obs.metrics is not None:
        obs.metrics.set(name, value)
