"""The single-sparw closed loop: one in-process SPARW session, no server.

It drives :meth:`SparwRenderer.step` and answers every ray request with
:meth:`NeRFRenderer.render_rays` — no socket, engine or shared cache —
replaying the workload's trajectory back to back until the window ends.
A sequence's first frame is due when the sequence starts; each later
frame is due when the previous one arrives.
"""

from __future__ import annotations

import time

from openloop import SessionRecord

from repro.core.sparw.pipeline import RayRequest
from repro.server.protocol import frame_digest
from repro.workloads import reset_caches

__all__ = ["measure_setup", "run_closed_loop"]


def measure_setup(spec, config, repeats: int) -> list:
    """Seconds to build the renderer (a cold bake) plus the trajectory."""
    times = []
    for _ in range(repeats):
        reset_caches()
        start = time.perf_counter()
        spec.build_renderer(config)
        spec.build_trajectory(config)
        times.append(time.perf_counter() - start)
    return times


def run_closed_loop(spec, config, seconds: float) -> tuple:
    """Replay ``spec``'s sequence for ``seconds``; returns
    ``(records, window_start, window_end)`` with one record per sequence."""
    poses = spec.build_trajectory(config).poses
    records = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        sparw = spec.build_sparw(config)
        record = SessionRecord(arrival=None, due=time.perf_counter(),
                               status="done")
        record.woke = record.acquired = record.due
        steps = sparw.step(poses)
        reply = None
        while True:
            try:
                event = steps.send(reply)
            except StopIteration:
                break
            if isinstance(event, RayRequest):
                reply = sparw.renderer.render_rays(event.origins,
                                                   event.directions)
                continue
            record.digests.append(frame_digest(event.frame))
            record.receipts.append(time.perf_counter())
            record.new_reference.append(bool(event.new_reference))
            reply = None
        records.append(record)
    return records, start, records[-1].receipts[-1]
