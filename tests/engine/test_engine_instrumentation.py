"""``run()``'s instrumentation: metric counters and work-clock round spans.

Under an active tracer and metrics registry, every engine round bumps
the ``engine.*`` counters and draws one ``engine.round`` span.  The
totals must agree with the :class:`BatchStats` the run returns, round
for round, so the trace and the metrics tell the same story as the
result.
"""

from repro.engine import MultiSessionEngine
from repro.harness.configs import FAST
from repro.obs import MetricsRegistry, Observation, Tracer, activate
from repro.workloads import SharedLRUCache, build_mixed_sessions, reset_caches


def test_run_counters_and_round_spans_match_batch_stats():
    reset_caches()
    budget = FAST.image_size * FAST.image_size  # one reference frame
    obs = Observation(tracer=Tracer(), metrics=MetricsRegistry())
    with activate(obs):
        result = MultiSessionEngine(
            build_mixed_sessions("vr-lego:2", FAST, frames=2),
            ray_budget=budget,
            reference_cache=SharedLRUCache(name="instrumented", max_entries=8),
        ).run()
    batch = result.batch
    assert batch.cache_hits > 0  # the cache counter is exercised

    counters = obs.metrics.snapshot()["counters"]
    assert counters["engine.rounds"] == batch.rounds
    assert counters["engine.rays"] == batch.total_rays
    assert counters["engine.requests"] == batch.requests
    assert counters["engine.nerf_calls"] == batch.nerf_calls
    assert counters["engine.cache_hits"] == batch.cache_hits

    spans = [event for event in obs.tracer.to_payload()["traceEvents"]
             if event["name"] == "engine.round"]
    assert len(spans) == batch.rounds
    assert [span["args"]["round"] for span in spans] == \
        list(range(batch.rounds))
    assert sum(span["args"]["rays"] for span in spans) == batch.total_rays
    assert sum(span["args"]["requests"] for span in spans) == batch.requests
    assert sum(span["args"]["nerf_calls"] for span in spans) == \
        batch.nerf_calls
    assert sum(span["args"]["cache_hits"] for span in spans) == \
        batch.cache_hits
    rays_hist = obs.metrics.snapshot()["histograms"]["engine.round_rays"]
    assert rays_hist["count"] == batch.rounds
