"""Section timing: accounting, routing, and the no-op overhead bound."""

import time

from repro.obs import Observation, Section, Timer, activate, section


def test_timer_accumulates_sections():
    timer = Timer()
    for _ in range(3):
        with Section(timer, "work"):
            pass
    stats = timer.stats()["work"]
    assert stats.calls == 3
    assert stats.total_ns >= 0
    assert stats.min_ns <= stats.max_ns
    assert stats.mean_ns == stats.total_ns / 3


def test_timer_report_sorted_by_total():
    timer = Timer()
    timer.record("slow", 5_000_000)
    timer.record("fast", 1_000)
    rows = timer.report()
    assert [row["section"] for row in rows] == ["slow", "fast"]
    assert rows[0]["total_ms"] == 5.0


def test_timer_reset():
    timer = Timer()
    timer.record("x", 10)
    timer.reset()
    assert timer.stats() == {}
    assert timer.total_ns("x") == 0


def test_reentrant_same_name_section_counts_once():
    """A recursive/nested section must not double-count its wall time.

    Only the outermost exit of a same-named nesting accumulates; inner
    entries ride along.  (A naive per-exit accumulation would bill the
    inner interval twice and report calls == 2.)
    """
    timer = Timer()
    with Section(timer, "work"):
        with Section(timer, "work"):
            time.sleep(0.002)
    stats = timer.stats()["work"]
    assert stats.calls == 1
    # Total is the single outermost interval, not ~2x the sleep.
    assert stats.total_ns == stats.max_ns


def test_reentrant_section_depth_resets_between_uses():
    timer = Timer()
    for _ in range(2):
        with Section(timer, "work"):
            with Section(timer, "work"):
                pass
    assert timer.stats()["work"].calls == 2
    # Distinct names still account independently when interleaved.
    with Section(timer, "outer"):
        with Section(timer, "inner"):
            pass
    assert timer.stats()["outer"].calls == 1
    assert timer.stats()["inner"].calls == 1


def test_module_section_routes_to_active_timer():
    timer = Timer()
    with section("outside-noop"):
        pass
    with activate(Observation(timer=timer)):
        with section("inside"):
            pass
    assert "inside" in timer.stats()
    assert "outside-noop" not in timer.stats()


def test_activation_nests_and_restores():
    outer, inner = Timer(), Timer()
    with activate(Observation(timer=outer)):
        with section("a"):
            pass
        with activate(Observation(timer=inner)):
            with section("b"):
                pass
        with section("c"):
            pass
    assert set(outer.stats()) == {"a", "c"}
    assert set(inner.stats()) == {"b"}


def test_noop_overhead_bound():
    """The inactive instrumentation path must stay effectively free.

    Product hot paths call ``section()`` unconditionally, so its
    no-timer cost gates how liberally the codebase can be annotated.
    The bound is generous (2 microseconds mean per call, ~20x the
    typical cost) so a loaded CI machine cannot flake it, while still
    catching an accidental always-on slow path.
    """
    iterations = 50_000
    start = time.perf_counter_ns()
    for _ in range(iterations):
        with section("noop"):
            pass
    per_call_ns = (time.perf_counter_ns() - start) / iterations
    assert per_call_ns < 2_000, f"no-op section cost {per_call_ns:.0f} ns"
