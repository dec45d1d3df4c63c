"""Open-loop client of the live workloads, and the serving-process handle.

The schedule is Poisson: one stream per title of the mix, each drawn by
:func:`repro.server.loadgen.loadgen_schedule` at the title's share of the
rate.  Each stream is conditioned on its expected session count — the
first ``n`` arrivals rescaled so the ``n + 1``-th lands at the end of the
window, which makes them ``n`` sorted uniform times, exactly a Poisson
stream given its count — so every seed offers the same number of
sessions of each title and only their timing varies.

A due session waits for one of ``slots`` connection slots; the client
keeps raw receipt times and computes every latency from them itself.
"""

from __future__ import annotations

import asyncio
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.server.loadgen import LoadgenOptions, loadgen_schedule
from repro.server.protocol import ProtocolError, read_message, write_message
from repro.workloads import parse_mix

__all__ = ["Arrival", "SessionRecord", "ServingProcess", "conditioned_schedule",
           "run_schedule"]

HERE = Path(__file__).resolve().parent


@dataclass(frozen=True)
class Arrival:
    """One scheduled session: when it is due and what it opens."""

    time_s: float
    workload: str
    seed: int
    frames: int
    fps_target: float


@dataclass
class SessionRecord:
    """Raw client-side times of one session (``perf_counter`` seconds).

    ``arrival`` is ``None`` for a closed-loop sequence, which has no
    schedule.
    """

    arrival: Arrival | None
    due: float
    woke: float = 0.0
    acquired: float = 0.0
    status: str = "pending"
    receipts: list = field(default_factory=list)
    digests: list = field(default_factory=list)
    queue_s: list = field(default_factory=list)
    render_s: list = field(default_factory=list)
    new_reference: list = field(default_factory=list)
    rounds: list = field(default_factory=list)  # t_server_s of each frame

    def frame_due(self, index: int) -> float:
        """When frame ``index`` was due.

        On a schedule, frame k is due at ``due + k / fps_target``; in a
        closed loop, when the previous frame arrived.
        """
        if self.arrival is not None:
            return self.due + index / self.arrival.fps_target
        return self.due if index == 0 else self.receipts[index - 1]


def conditioned_schedule(mix: str, rate_hz: float, window_s: float,
                         seed: int, distinct_seeds: bool,
                         frames: int) -> list:
    """The seeded arrival list of one run (see the module docstring).

    Every session asks for ``frames`` frames.  With ``distinct_seeds``
    the k-th session of each title opens with trajectory seed ``k + 1``,
    so no two sessions share content and every run serves the same
    trajectories; otherwise every session opens with ``seed``.
    """
    pairs = parse_mix(mix)
    weight = sum(count for _, count in pairs)
    arrivals = []
    for stream, (spec, count) in enumerate(pairs):
        share = count / weight
        wanted = max(1, round(rate_hz * window_s * share))
        duration = 2.0 * window_s
        while True:
            times = [a.time_s for a in loadgen_schedule(LoadgenOptions(
                mix=spec.name, arrivals="poisson", rate_hz=rate_hz * share,
                duration_s=duration, seed=seed * 1009 + stream))]
            if len(times) > wanted:
                break
            duration *= 2.0
        scale = window_s / times[wanted]
        arrivals += [Arrival(time_s=t * scale, workload=spec.name,
                             seed=k + 1 if distinct_seeds else seed,
                             frames=frames,
                             fps_target=float(spec.fps_target))
                     for k, t in enumerate(times[:wanted])]
    return sorted(arrivals, key=lambda a: (a.time_s, a.workload))


async def _session(port: int, record: SessionRecord,
                   slots: asyncio.Semaphore) -> None:
    delay = record.due - time.perf_counter()
    if delay > 0.0:
        await asyncio.sleep(delay)
    record.woke = time.perf_counter()
    async with slots:
        record.acquired = time.perf_counter()
        record.status = await _converse(port, record)


async def _converse(port: int, record: SessionRecord) -> str:
    try:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
    except OSError as exc:
        return f"connect_failed: {exc}"
    try:
        hello = await read_message(reader)
        if hello is None or hello["type"] != "hello":
            return "bad_hello"
        write_message(writer, {"type": "open",
                               "workload": record.arrival.workload,
                               "seed": record.arrival.seed,
                               "frames": record.arrival.frames})
        await writer.drain()
        opened = await read_message(reader)
        if opened is None or opened["type"] != "opened":
            return f"not_opened: {opened}"
        while True:
            message = await read_message(reader)
            if message is None:
                return "server_hung_up"
            if message["type"] == "done":
                return "done"
            if message["type"] != "frame":
                return f"unexpected: {message}"
            record.receipts.append(time.perf_counter())
            record.digests.append(message["digest"])
            record.queue_s.append(message["queue_s"])
            record.render_s.append(message["render_s"])
            record.rounds.append(message["t_server_s"])
            record.new_reference.append(message["new_reference"])
    except ProtocolError as exc:
        return f"protocol_error: {exc}"
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def _run(port: int, arrivals: list, slots: int) -> tuple:
    gate = asyncio.Semaphore(slots)
    origin = time.perf_counter() + 0.05
    records = [SessionRecord(arrival=a, due=origin + a.time_s)
               for a in arrivals]
    tasks = [asyncio.create_task(_session(port, r, gate)) for r in records]
    await asyncio.gather(*tasks)
    start = min(r.due for r in records)
    end = max((r.receipts[-1] for r in records if r.receipts),
              default=time.perf_counter())
    return records, start, end


def run_schedule(port: int, arrivals: list, slots: int) -> tuple:
    """Serve the schedule; returns ``(records, window_start, window_end)``.

    The window runs from the first session's due time to the receipt of
    the last frame.
    """
    return asyncio.run(_run(port, arrivals, slots))


async def _warm(port: int, names: list) -> list:
    async def one(name):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            await read_message(reader)  # hello
            write_message(writer, {"type": "open", "workload": name,
                                   "frames": 1})
            await writer.drain()
            while True:
                message = await read_message(reader)
                if message is None or message["type"] in ("done", "error"):
                    return None if message is None else message["type"]
        finally:
            writer.close()
            await writer.wait_closed()

    return [await one(name) for name in names]


def warm_up(port: int, mix: str) -> None:
    """Bake every field of the mix: one one-frame session per title, one
    title at a time (concurrent bakes would make peak memory depend on
    how they happen to overlap)."""
    names = [spec.name for spec, _ in parse_mix(mix)]
    outcomes = asyncio.run(_warm(port, names))
    if outcomes != ["done"] * len(names):
        raise RuntimeError(f"warm-up sessions failed: {outcomes}")


class ServingProcess:
    """A ``serving.py`` child process, set up for ``mix``, and its command
    pipe.

    Set-up runs from launch until every field of the mix is baked and
    ``REFERENCE_CACHE`` is empty again; ``setup_s`` is its wall time.
    Use as a context manager, which stops the process on exit.
    """

    def __init__(self, mix: str):
        launched = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "serving.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.port = int(self._read()["port"])
            warm_up(self.port, mix)
            self.command("clear_references")
        except BaseException:
            self.close()
            raise
        self.setup_s = time.perf_counter() - launched

    def __enter__(self) -> "ServingProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _read(self) -> dict:
        line = self.process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"serving process exited (code {self.process.poll()})")
        return json.loads(line)

    def command(self, op: str, **arguments) -> dict:
        """Send one control command and return its reply."""
        self.process.stdin.write(json.dumps({"op": op, **arguments}) + "\n")
        self.process.stdin.flush()
        reply = self._read()
        if not reply.get("ok"):
            raise RuntimeError(f"serving process: {op} failed: {reply}")
        return reply

    def close(self) -> None:
        """Stop the process and wait for it (kill if it does not stop)."""
        if self.process.poll() is None:
            try:
                self.command("quit")
            except (OSError, RuntimeError, ValueError):
                pass
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        for stream in (self.process.stdin, self.process.stdout):
            stream.close()
