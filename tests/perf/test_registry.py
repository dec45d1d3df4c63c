"""Microbenchmark registry: completeness and sane per-kernel results."""

import math
import os

import pytest

from repro.harness.configs import FAST
from repro.perf import bench

# The kernels the ISSUE-5 tentpole requires the registry to cover.
REQUIRED_KERNELS = (
    "field_query.directvoxgo",
    "field_query.instant_ngp",
    "field_query.tensorf",
    "warp.gather",
    "warp.scatter",
    "disocclusion.classify",
    "volume.composite",
    "engine.round",
    "cluster.tick",
    "single_session.sparw",
)


def test_registry_covers_required_kernels():
    registered = bench.registered_kernels()
    missing = [k for k in REQUIRED_KERNELS if k not in registered]
    assert not missing, f"registry lost required kernels: {missing}"


@pytest.fixture(scope="module")
def quick_run():
    """One shared quick run of the full registry (it is the slow part)."""
    return bench.run_benchmarks(config=FAST, quick=True)


def test_every_registered_kernel_runs_and_reports(quick_run):
    rows, extra = quick_run
    # List-returning benchmarks (engine.round.scaling) expand one registry
    # id into several rows named "<id-prefix>.workersN"; every emitted row
    # must trace back to exactly one registered id, in registry order.
    emitted = [row["kernel"] for row in rows]
    expected = []
    for name in bench.registered_kernels():
        if name == "engine.round.scaling":
            expected.extend(k for k in emitted
                            if k.startswith("engine.round.workers"))
        else:
            expected.append(name)
    assert emitted == expected
    assert any(k.startswith("engine.round.workers") for k in emitted)
    for row in rows:
        ns = row["ns_per_op"]
        assert isinstance(ns, float) and math.isfinite(ns) and ns > 0, row
        assert row["items"] > 0 and row["reps"] > 0, row
        assert math.isfinite(row["wall_s"]) and row["wall_s"] > 0, row
    assert extra["mode"] == "quick"


def test_speedup_kernels_report_reference_numbers(quick_run):
    rows, _ = quick_run
    by_kernel = {row["kernel"]: row for row in rows}
    for kernel in ("single_session.sparw", "render_rays.full_frame",
                   "field_query.directvoxgo"):
        row = by_kernel[kernel]
        assert math.isfinite(row["ns_per_op_reference"])
        assert row["speedup_x"] > 0
    headline = by_kernel["single_session.sparw"]
    assert headline["frames_per_s"] > 0
    assert headline["frames_per_s_reference"] > 0


def test_environment_fingerprint_present(quick_run):
    _, extra = quick_run
    env = extra["environment"]
    for key in ("python", "numpy", "platform", "machine", "cpu_count"):
        assert key in env, f"fingerprint missing {key}"


def test_scaling_omits_efficiency_beyond_core_count(monkeypatch):
    """With more workers than cores the pool time-slices, so a speedup
    below 1 there is a slowdown, not an efficiency: such rows carry
    ``speedup_vs_serial`` but no ``per_core_efficiency``."""
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    rows, _ = bench.run_benchmarks(config=FAST, quick=True,
                                   kernels=["engine.round.scaling"])
    by_workers = {row["workers"]: row for row in rows}
    assert sorted(by_workers) == [1, 2, 4]
    for workers, row in by_workers.items():
        assert row["cores"] == 2
        assert row["speedup_vs_serial"] > 0
        assert ("per_core_efficiency" in row) == (workers <= 2), row
    two = by_workers[2]
    assert two["per_core_efficiency"] == pytest.approx(
        two["speedup_vs_serial"] / 2)


def test_kernel_subset_and_unknown_kernel():
    rows, extra = bench.run_benchmarks(config=FAST, quick=True,
                                       kernels=["disocclusion.classify"])
    assert [row["kernel"] for row in rows] == ["disocclusion.classify"]
    assert extra["kernels"] == ["disocclusion.classify"]
    with pytest.raises(KeyError):
        bench.run_benchmarks(config=FAST, quick=True, kernels=["nope"])


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError):
        bench.register("disocclusion.classify")(lambda ctx: {})
