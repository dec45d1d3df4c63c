"""Span recording around the public functions of each measured layer.

The program carries no instrumentation of its own for this benchmark:
:class:`SpanRecorder` replaces module attributes with thin wrappers for
the length of a traced pass and restores them afterwards.  A wrapper is
installed at the attribute each call site actually reads — a name
imported by value (``composite`` in ``repro.nerf.renderer``,
``warp_frame`` in ``repro.core.sparw.pipeline``) is patched in the
importing module, a method on its class.

Each span records its name, start and end (``perf_counter_ns``), its
parent span on the same thread, the session it served when one is known,
and a few counts taken from the call's arguments or result.  Spans stay
in memory until :meth:`SpanRecorder.dump`; :func:`layer_metrics` turns a
dumped list into self times and per-item costs.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict

import numpy as np

__all__ = ["SpanRecorder", "layer_metrics", "round_check"]

_ALGORITHM_OF_FIELD = {
    "VoxelGridField": "directvoxgo",
    "HashGridField": "instant_ngp",
}


class SpanRecorder:
    """Wraps layer entry points and keeps one record per call."""

    def __init__(self):
        self.spans: list = []
        self.engines: list = []  # engines seen by run_round, in order
        self._ids = itertools.count()
        self._local = threading.local()
        self._patches: list = []  # (owner, attribute, original)

    # -- recording -------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, fn, args, kwargs, counts):
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else -1
        session = getattr(self._local, "session", None)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
        extra = counts(args, kwargs, result) if counts is not None else None
        self.spans.append((span_id, parent, name, start, end, session,
                           threading.get_ident(), extra))
        return result

    def _wrap(self, owner, attribute: str, name: str, counts=None) -> None:
        original = getattr(owner, attribute)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return recorder._call(name, original, args, kwargs, counts)

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    def _wrap_context(self, owner, attribute: str, session_of) -> None:
        """Tag spans under ``owner.attribute`` with a session id (no span)."""
        original = getattr(owner, attribute)
        local = self._local

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            previous = getattr(local, "session", None)
            local.session = session_of(args)
            try:
                return original(*args, **kwargs)
            finally:
                local.session = previous

        setattr(owner, attribute, wrapper)
        self._patches.append((owner, attribute, original))

    # -- installation ----------------------------------------------------------

    def install(self, serving: bool) -> "SpanRecorder":
        """Patch the nerf and sparw layers, plus server/engine/workloads
        entry points when ``serving`` (the live workloads)."""
        import repro.core.sparw.pipeline as pipeline
        import repro.nerf.renderer as renderer
        from repro.nerf.fields.hash_grid import HashGridField
        from repro.nerf.fields.voxel_grid import VoxelGridField
        from repro.nerf.sampling import UniformSampler

        def rays_of_bundles(args, kwargs, result):
            return {"rays": int(sum(np.shape(o)[0] for o, _ in args[1]))}

        def rays_of_call(args, kwargs, result):
            return {"rays": len(np.atleast_2d(args[1]))}

        def sampled(args, kwargs, result):
            sampler = args[0]
            rays = int(result.num_rays)
            return {"rays": rays, "kept": len(result),
                    "lattice": rays * int(sampler.num_samples)}

        def points(args, kwargs, result):
            return {"n": int(np.shape(args[1])[0]),
                    "algo": _ALGORITHM_OF_FIELD[type(args[0]).__name__]}

        def decoded(args, kwargs, result):
            return {"n": int(np.shape(args[1])[0])}

        def composited(args, kwargs, result):
            return {"n": int(np.shape(args[0])[0])}

        def warped(args, kwargs, result):
            return {"pixels": int(result.depth.size)}

        def classified(args, kwargs, result):
            return {"pixels": int(result.disoccluded.size),
                    "rerender": int(np.count_nonzero(result.disoccluded))}

        cls = renderer.NeRFRenderer
        self._wrap(cls, "render_ray_batch", "nerf.render_ray_batch",
                   rays_of_bundles)
        self._wrap(cls, "render_rays", "nerf.render_rays", rays_of_call)
        self._wrap(UniformSampler, "sample", "nerf.sample", sampled)
        for field_cls in (VoxelGridField, HashGridField):
            self._wrap(field_cls, "interpolate", "nerf.interpolate", points)
            self._wrap(field_cls, "decode", "nerf.decode", decoded)
        self._wrap(renderer, "composite", "nerf.composite", composited)
        self._wrap(pipeline, "warp_frame", "sparw.warp_frame", warped)
        self._wrap(pipeline, "classify_pixels", "sparw.classify_pixels",
                   classified)
        if serving:
            self._install_serving()
        return self

    def _install_serving(self) -> None:
        import repro.server.protocol as protocol
        import repro.server.server as server
        from repro.engine import MultiSessionEngine
        from repro.engine.session import RenderSession
        from repro.workloads.spec import WorkloadSpec

        engines = self.engines

        def round_counts(args, kwargs, result):
            return {"frames": sum(len(records) for _, records in result)}

        def encoded(args, kwargs, result):
            return {"bytes": len(result)}

        # Snapshot the engine's cumulative batch counters before its first
        # traced round, so the report can take deltas over the pass.
        original_round = MultiSessionEngine.run_round

        @functools.wraps(original_round)
        def first_round_snapshot(engine, *args, **kwargs):
            if not any(seen is engine for seen, _ in engines):
                engines.append((engine, _batch_counts(engine.batch)))
            return original_round(engine, *args, **kwargs)

        MultiSessionEngine.run_round = first_round_snapshot
        self._patches.append((MultiSessionEngine, "run_round",
                              original_round))
        self._wrap(MultiSessionEngine, "run_round", "engine.run_round",
                   round_counts)
        self._wrap_context(RenderSession, "deliver",
                           lambda args: args[0].session_id)
        self._wrap(WorkloadSpec, "build_session", "workloads.build_session")
        self._wrap(server, "frame_digest", "server.frame_digest")
        self._wrap(protocol, "encode_message", "server.encode_message",
                   encoded)

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse order)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- output ----------------------------------------------------------------

    def batch_deltas(self) -> dict:
        """Engine ``BatchStats`` deltas over the traced pass (summed)."""
        total = defaultdict(int)
        for engine, before in self.engines:
            after = _batch_counts(engine.batch)
            for key, value in after.items():
                total[key] += value - before[key]
        return dict(total)

    def dump(self, path) -> int:
        """Write the spans as JSON (one record per span); returns the count."""
        keys = ("id", "parent", "name", "start_ns", "end_ns", "session",
                "thread", "counts")
        records = [dict(zip(keys, span)) for span in self.spans]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": records, "batch": self.batch_deltas()},
                      handle)
        return len(records)


def _batch_counts(batch) -> dict:
    return {"rounds": batch.rounds, "requests": batch.requests,
            "nerf_calls": batch.nerf_calls, "total_rays": batch.total_rays,
            "cache_hits": batch.cache_hits}


# -- analysis --------------------------------------------------------------------


def _self_times(spans: list) -> dict:
    """Span id -> its duration minus the durations of its direct children."""
    child_ns = defaultdict(int)
    for span in spans:
        if span["parent"] >= 0:
            child_ns[span["parent"]] += span["end_ns"] - span["start_ns"]
    return {span["id"]: span["end_ns"] - span["start_ns"]
            - child_ns[span["id"]] for span in spans}


def _round_of(spans: list) -> dict:
    """Span id -> id of the ``engine.run_round`` span it runs under."""
    by_id = {span["id"]: span for span in spans}
    cache: dict = {}

    def root(span_id):
        if span_id in cache:
            return cache[span_id]
        span = by_id.get(span_id)
        if span is None:
            found = None
        elif span["name"] == "engine.run_round":
            found = span_id
        else:
            found = root(span["parent"]) if span["parent"] >= 0 else None
        cache[span_id] = found
        return found

    return {span["id"]: root(span["id"]) for span in spans}


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _pct(values: list, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list, batch: dict, window_s: float) -> dict:
    """Per-layer metrics from a dumped span list.

    ``batch`` holds the engine ``BatchStats`` deltas over the pass and
    ``window_s`` the wall time of the traced window.
    """
    self_ns = _self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span["name"]].append(span)

    def self_s(*names):
        return sum(self_ns[s["id"]] for name in names
                   for s in by_name[name]) / 1e9

    def total(name, key):
        return sum(s["counts"][key] for s in by_name[name])

    metrics: dict = {}
    builds = [(s["end_ns"] - s["start_ns"]) / 1e6
              for s in by_name["workloads.build_session"]]
    metrics["server.build_ms_p50"] = _pct(builds, 50)
    metrics["server.digest_self_s"] = self_s("server.frame_digest")
    metrics["server.encode_self_s"] = self_s("server.encode_message")
    metrics["server.bytes_sent"] = total("server.encode_message", "bytes")

    rounds = [(s["end_ns"] - s["start_ns"]) / 1e6
              for s in by_name["engine.run_round"]]
    metrics["engine.rounds"] = len(rounds)
    metrics["engine.round_ms_p50"] = _pct(rounds, 50)
    metrics["engine.round_ms_p99"] = _pct(rounds, 99)
    metrics["engine.self_s"] = self_s("engine.run_round")
    metrics["engine.round_total_s"] = sum(rounds) / 1e3
    metrics["engine.busy_share"] = _ratio(sum(rounds) / 1e3, window_s)
    metrics["engine.rays_per_round"] = _ratio(batch.get("total_rays", 0),
                                              batch.get("rounds", 0))
    metrics["engine.requests_per_call"] = _ratio(batch.get("requests", 0),
                                                 batch.get("nerf_calls", 0))
    metrics["engine.cache_hits"] = batch.get("cache_hits", 0)

    metrics["nerf.sample_self_s"] = self_s("nerf.sample")
    metrics["nerf.sample_ns_per_ray"] = _ratio(
        self_s("nerf.sample") * 1e9, total("nerf.sample", "rays"))
    metrics["nerf.kept_share"] = _ratio(total("nerf.sample", "kept"),
                                        total("nerf.sample", "lattice"))
    for algo in ("directvoxgo", "instant_ngp"):
        spans_of = [s for s in by_name["nerf.interpolate"]
                    if s["counts"]["algo"] == algo]
        metrics[f"nerf.interpolate_ns_per_sample.{algo}"] = _ratio(
            sum(self_ns[s["id"]] for s in spans_of),
            sum(s["counts"]["n"] for s in spans_of))
    metrics["nerf.interpolate_self_s"] = self_s("nerf.interpolate")
    for stage in ("decode", "composite"):
        name = f"nerf.{stage}"
        metrics[f"{name}_self_s"] = self_s(name)
        metrics[f"{name}_ns_per_sample"] = _ratio(self_s(name) * 1e9,
                                                  total(name, "n"))
    metrics["nerf.render_self_s"] = self_s("nerf.render_ray_batch",
                                           "nerf.render_rays")
    metrics["nerf.rays"] = (total("nerf.render_ray_batch", "rays")
                            + total("nerf.render_rays", "rays"))
    metrics["nerf.samples"] = total("nerf.sample", "kept")

    metrics["sparw.warp_self_s"] = self_s("sparw.warp_frame")
    metrics["sparw.warp_ns_per_pixel"] = _ratio(
        self_s("sparw.warp_frame") * 1e9, total("sparw.warp_frame", "pixels"))
    metrics["sparw.classify_self_s"] = self_s("sparw.classify_pixels")
    metrics["sparw.rerender_share"] = _ratio(
        total("sparw.classify_pixels", "rerender"),
        total("sparw.classify_pixels", "pixels"))
    return metrics


ROUND_LAYERS = ("engine", "nerf", "sparw")
ROUND_WALL_TOLERANCE = 0.01


def round_check(spans: list, server_rounds: dict) -> dict:
    """Check that the engine, nerf and sparw spans account for the rounds.

    Self times partition each ``run_round`` span by construction, so the
    split of the rounds' wall time into engine, nerf and sparw self time
    holds only if the spans cover the rounds.  ``server_rounds`` maps
    each round that delivered frames (its ``t_server_s``, from the frame
    payloads) to the server's own ``render_s`` timing of it.  The check
    passes when

    * every nerf and sparw span ran inside a ``run_round`` span (no
      render escaped the rounds, e.g. on another thread),
    * every span inside a round belongs to the engine, nerf or sparw
      layer (span names start with their layer), and
    * the traced rounds that delivered frames match the server's in
      number, and their summed wall time matches the server's within
      ``ROUND_WALL_TOLERANCE``.
    """
    self_ns = _self_times(spans)
    round_of = _round_of(spans)
    layer = {s["id"]: s["name"].split(".")[0] for s in spans}
    outside = sorted({s["name"] for s in spans
                      if layer[s["id"]] in ("nerf", "sparw")
                      and round_of[s["id"]] is None})
    foreign = sorted({s["name"] for s in spans
                      if round_of[s["id"]] is not None
                      and layer[s["id"]] not in ROUND_LAYERS})
    delivering = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans
                  if s["name"] == "engine.run_round" and s["counts"]["frames"]]
    traced_s, server_s = sum(delivering), sum(server_rounds.values())
    inside_ns = sum(self_ns[s["id"]] for s in spans
                    if round_of[s["id"]] is not None
                    and layer[s["id"]] in ROUND_LAYERS)
    return {
        "passed": (not outside and not foreign
                   and len(delivering) == len(server_rounds)
                   and abs(traced_s - server_s)
                   <= ROUND_WALL_TOLERANCE * server_s),
        "outside_rounds": outside,
        "foreign_in_rounds": foreign,
        "delivering_rounds": {"traced": len(delivering),
                              "server": len(server_rounds)},
        "delivering_wall_s": {"traced": traced_s, "server": server_s},
        "rounds_wall_s": sum(s["end_ns"] - s["start_ns"] for s in spans
                             if s["name"] == "engine.run_round") / 1e9,
        "engine_nerf_sparw_self_s": inside_ns / 1e9,
    }
