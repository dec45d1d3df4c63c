"""The serving process of the live workloads: one FrameServer, driven by a pipe.

Started by ``run.py`` as its own process.  It binds a
:class:`repro.server.FrameServer` at DEFAULT scale on an ephemeral
localhost port, prints ``{"event": "listening", "port": P}`` and then
answers one JSON command per line on stdin with one JSON reply per line
on stdout:

* ``clear_references`` — empty ``REFERENCE_CACHE`` (after warm-up);
* ``mark`` — snapshot the shared-cache counters (start of a window);
* ``report`` — cache counter deltas since ``mark`` and peak RSS;
* ``trace_on`` / ``trace_off`` — wrap the layers' public functions for
  one pass, then restore them and write the spans to ``path``;
* ``solo_digests`` — frame digests of solo ``render_sequence`` runs;
* ``quit`` — stop the server and exit.

The server itself is the program's own code, unmodified.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from spans import SpanRecorder  # noqa: E402

from repro.harness.configs import DEFAULT  # noqa: E402
from repro.server import FrameServer, ServerOptions, frame_digest  # noqa: E402
from repro.workloads import FIELD_CACHE, REFERENCE_CACHE, get_workload  # noqa: E402


def peak_rss_mb(pid: str = "self") -> float:
    """Peak resident set size (VmHWM) of a process, in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc status")


def solo_digests(sessions: list) -> dict:
    """``{"name/seed/frames": [digest, ...]}`` from a solo run of each
    session spec."""
    out = {}
    for name, seed, frames in sessions:
        spec = get_workload(name).with_overrides(frames=frames,
                                                 seed_offset=seed)
        out[f"{name}/{seed}/{frames}"] = [
            frame_digest(r.frame) for r in spec.run_solo(DEFAULT).records]
    return out


class Control:
    """State behind the control commands."""

    def __init__(self):
        self.marks = None
        self.recorder = None

    def handle(self, command: dict) -> dict:
        """Run one command; returns the JSON reply."""
        op = command["op"]
        if op == "clear_references":
            REFERENCE_CACHE.clear()
            return {"ok": True, "entries": len(REFERENCE_CACHE)}
        if op == "mark":
            self.marks = (FIELD_CACHE.stats.snapshot(),
                          REFERENCE_CACHE.stats.snapshot())
            return {"ok": True}
        if op == "report":
            fields, references = (cache.stats.since(mark) for cache, mark
                                  in zip((FIELD_CACHE, REFERENCE_CACHE),
                                         self.marks))
            return {"ok": True, "peak_rss_mb": peak_rss_mb(),
                    "field_misses": fields.misses,
                    "reference_hits": references.hits,
                    "reference_lookups": references.lookups,
                    "reference_evictions": references.evictions,
                    "reference_insertions": references.insertions}
        if op == "trace_on":
            self.recorder = SpanRecorder().install(serving=True)
            return {"ok": True}
        if op == "trace_off":
            recorder, self.recorder = self.recorder, None
            recorder.uninstall()
            return {"ok": True, "spans": recorder.dump(command["path"])}
        if op == "solo_digests":
            return {"ok": True,
                    "digests": solo_digests(command["sessions"])}
        raise ValueError(f"unknown op {op!r}")


async def serve() -> None:
    """Run the server until ``quit`` or the end of stdin."""
    server = await FrameServer(DEFAULT, ServerOptions()).start()
    control = Control()
    loop = asyncio.get_running_loop()
    print(json.dumps({"event": "listening", "port": server.port}),
          flush=True)
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                break
            command = json.loads(line)
            if command["op"] == "quit":
                break
            reply = await loop.run_in_executor(None, control.handle,
                                               command)
            print(json.dumps(reply), flush=True)
    finally:
        await server.stop()
    print(json.dumps({"ok": True, "event": "stopped"}), flush=True)


if __name__ == "__main__":
    asyncio.run(serve())
