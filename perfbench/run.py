"""End-to-end serving benchmark: three workloads, untraced or traced.

Usage (from the repository root)::

    python3 perfbench/run.py --workload live-shared --seed 1 --seconds 40 --trace 0

Workloads:

* ``live-shared`` / ``live-distinct`` — open-loop Poisson sessions over
  TCP against a :class:`repro.server.FrameServer` running in its own
  process (``serving.py``), at most ``nproc`` connections at once.
* ``single-sparw`` — a closed loop over one in-process ``vr-lego``
  SPARW session (``closedloop.py``).

With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it serves the same schedule twice in one process,
untraced and then traced (``spans.py``), and reports the per-layer
metrics plus the difference between the two passes.  Every delivered
frame's digest is compared with a solo ``render_sequence`` of the same
spec and seed, computed outside the timed window.  A human-readable
report comes first, a full JSON artifact is written under
``.perfbench-out/``, and the last stdout line is the result object.
The exit code is 1 when any session failed, any digest differed or,
in a traced live run, the round check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".perfbench-out"

# Live workloads: the title mix, the offered session rate and whether
# each session opens its own trajectory seed.  The rates keep the single
# engine thread well below saturation (live-shared keeps it about a
# fifth busy), so a run's latencies measure service rather than a
# backlog.
WORKLOADS = {
    "live-shared": {"mix": "vr-lego:4,vr-headshake:2,dolly-chair:1",
                    "rate_hz": 2.0, "distinct_seeds": False},
    "live-distinct": {"mix": "walk-materials:3,orbit-ngp:1,sparse-ignatius:1",
                      "rate_hz": 0.5, "distinct_seeds": True},
    "single-sparw": {"spec": "vr-lego"},
}
# Frames each live session asks for: short sessions let one window hold
# enough sessions for steady TTFF figures.
SESSION_FRAMES = 6
SETUP_REPEATS = 3
ONTIME_SLACK_S = 0.100  # three 30-fps periods
OVERHEAD_METRICS = ("frames_per_s", "ttff_p50_ms", "frame_gap_p50_ms")


class Pass(NamedTuple):
    """One served window: its sessions, bounds and server-side report."""

    records: list
    start: float
    end: float
    report: dict
    span_path: Path | None


def percentile(values: list, q: float) -> dict:
    """``{"value", "n", "beyond"}``: the q-th percentile and its support."""
    n = len(values)
    value = float(np.percentile(values, q)) if n else 0.0
    return {"value": value, "n": n, "beyond": int(n * (100 - q) / 100)}


def end_to_end(run: Pass, setups: list, rss_mb: float, live: bool) -> dict:
    """The end-to-end metrics of one pass, each with its sample count."""
    records = run.records
    firsts = [(r.receipts[0] - r.due) * 1e3 for r in records if r.receipts]
    gaps = [(b - a) * 1e3 for r in records
            for a, b in zip(r.receipts, r.receipts[1:])]
    frames = sum(len(r.receipts) for r in records)
    failed = sum(1 for r in records if r.status != "ok")
    metrics = {
        "setup_s": {"value": statistics.median(setups), "unit": "s",
                    "n": len(setups)},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB", "n": 1},
        "frames_per_s": {"value": frames / (run.end - run.start),
                         "unit": "frames/s", "n": frames},
        "ttff_p50_ms": {**percentile(firsts, 50), "unit": "ms"},
        "ttff_p90_ms": {**percentile(firsts, 90), "unit": "ms"},
        "frame_gap_p50_ms": {**percentile(gaps, 50), "unit": "ms"},
        "frame_gap_p99_ms": {**percentile(gaps, 99), "unit": "ms"},
        "failed_share": {"value": failed / len(records), "unit": "share",
                         "n": len(records)},
    }
    if live:
        requested = sum(r.arrival.frames for r in records)
        ontime = sum(1 for r in records for k, t in enumerate(r.receipts)
                     if t - r.frame_due(k) <= ONTIME_SLACK_S)
        metrics["ontime_share"] = {"value": ontime / requested,
                                   "unit": "share", "n": requested}
    return metrics


def check_digests(records: list, expected: dict, key_of) -> None:
    """Mark each finished record ``ok`` or ``digest_mismatch``."""
    for record in records:
        if record.status == "done":
            record.status = ("ok" if record.digests == expected[key_of(record)]
                             else "digest_mismatch")


def client_metrics(records: list, live: bool) -> dict:
    """Per-layer metrics read on the client: its own lateness and the
    fields of the frame payloads."""
    lags = [(r.woke - r.due) * 1e3 for r in records]
    waits = [(r.acquired - r.woke) * 1e3 for r in records]
    queue = [q * 1e3 for r in records for q in r.queue_s]
    render = [q * 1e3 for r in records for q in r.render_s]
    refs = sum(sum(r.new_reference) for r in records)
    frames = sum(len(r.receipts) for r in records)
    return {
        "client.start_lag_p99_ms": percentile(lags, 99)["value"] if live
        else 0.0,
        "client.slot_wait_p90_ms": percentile(waits, 90)["value"] if live
        else 0.0,
        "server.queue_ms_p50": percentile(queue, 50)["value"],
        "server.queue_ms_p99": percentile(queue, 99)["value"],
        "server.render_ms_p50": percentile(render, 50)["value"],
        "sparw.reference_share": refs / frames if frames else 0.0,
    }


def cache_metrics(report: dict) -> dict:
    """Per-layer metrics of the workloads layer's shared caches."""
    lookups = report.get("reference_lookups", 0)
    return {
        "workloads.reference_hit_rate": (report.get("reference_hits", 0)
                                         / lookups if lookups else 0.0),
        "workloads.reference_lookups": lookups,
        "workloads.reference_evictions": report.get("reference_evictions",
                                                    0),
        "workloads.field_misses": report.get("field_misses", 0),
    }


def traced_metrics(traced: Pass, untraced: dict, live: bool) -> tuple:
    """Every per-layer metric of the traced pass, and on live workloads
    the round check of :func:`spans.round_check` (``None`` otherwise)."""
    from spans import layer_metrics, round_check
    with open(traced.span_path, encoding="utf-8") as handle:
        dumped = json.load(handle)
    metrics = layer_metrics(dumped["spans"], dumped["batch"],
                            traced.end - traced.start)
    check = None
    if live:
        server_rounds = {t: render for r in traced.records
                         for t, render in zip(r.rounds, r.render_s)}
        check = round_check(dumped["spans"], server_rounds)
    metrics.update(client_metrics(traced.records, live))
    metrics.update(cache_metrics(traced.report))
    with_trace = end_to_end(traced, [0.0], 0.0, live)
    for name in OVERHEAD_METRICS:
        metrics[f"trace.overhead.{name}"] = (with_trace[name]["value"]
                                             - untraced[name]["value"])
    return metrics, check


def serve_pass(proc, arrivals: list, slots: int, expected: dict,
               span_path: Path | None) -> Pass:
    """Serve the schedule once from an empty ``REFERENCE_CACHE`` and
    verify every frame digest; traced when ``span_path`` is given."""
    from openloop import run_schedule

    proc.command("clear_references")
    proc.command("mark")
    if span_path is not None:
        proc.command("trace_on")
    records, start, end = run_schedule(proc.port, arrivals, slots)
    if span_path is not None:
        proc.command("trace_off", path=str(span_path))
    report = proc.command("report")
    check_digests(records, expected, lambda r: (
        f"{r.arrival.workload}/{r.arrival.seed}/{r.arrival.frames}"))
    return Pass(records, start, end, report, span_path)


def run_live(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up the serving process, serve the schedule, verify, report."""
    from openloop import ServingProcess, conditioned_schedule

    config = WORKLOADS[workload]
    mix = config["mix"]
    arrivals = conditioned_schedule(mix, config["rate_hz"], seconds, seed,
                                    config["distinct_seeds"], SESSION_FRAMES)
    slots = len(os.sched_getaffinity(0))
    wanted = sorted({(a.workload, a.seed, a.frames) for a in arrivals})
    # SETUP_REPEATS fresh serving processes: the first also renders the
    # solo digests, the last serves the window, so neither the solo
    # renders nor a second set-up reach the window's peak memory.
    setups = []
    with ServingProcess(mix) as proc:
        setups.append(proc.setup_s)
        expected = proc.command("solo_digests",
                                sessions=[list(w) for w in wanted])["digests"]
    for _ in range(SETUP_REPEATS - 2):
        with ServingProcess(mix) as proc:
            setups.append(proc.setup_s)
    with ServingProcess(mix) as proc:
        setups.append(proc.setup_s)
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.json"
        passes = [serve_pass(proc, arrivals, slots, expected, span_path)
                  for span_path in ([None, spans] if trace else [None])]

    result = {
        "schedule": {"mix": config["mix"], "rate_hz": config["rate_hz"],
                     "frames_per_session": SESSION_FRAMES,
                     "arrival": "poisson, conditioned per title on its "
                                "expected count",
                     "sessions": len(arrivals), "slots": slots,
                     "distinct_seeds": config["distinct_seeds"]},
        "end_to_end": end_to_end(passes[0], setups,
                                 passes[0].report["peak_rss_mb"], True),
        "passes": passes,
    }
    if trace:
        result["per_layer"], result["round_check"] = traced_metrics(
            passes[1], result["end_to_end"], True)
    return result


def run_single(seed: int, seconds: float, trace: bool) -> dict:
    """The single-sparw closed loop, untraced and optionally traced."""
    from closedloop import measure_setup, run_closed_loop
    from serving import peak_rss_mb
    from spans import SpanRecorder

    from repro.harness.configs import DEFAULT
    from repro.server.protocol import frame_digest
    from repro.workloads import get_workload

    spec = get_workload(WORKLOADS["single-sparw"]["spec"]).with_overrides(
        seed_offset=seed)
    setups = measure_setup(spec, DEFAULT, SETUP_REPEATS)
    expected = [frame_digest(r.frame) for r in spec.run_solo(DEFAULT).records]
    passes = []
    for traced in ([False, True] if trace else [False]):
        recorder = SpanRecorder().install(serving=False) if traced else None
        try:
            records, start, end = run_closed_loop(spec, DEFAULT, seconds)
        finally:
            if recorder is not None:
                recorder.uninstall()
        span_path = None
        if traced:
            span_path = OUT_DIR / f"spans-single-sparw-seed{seed}.json"
            recorder.dump(span_path)
        check_digests(records, {"solo": expected}, lambda r: "solo")
        passes.append(Pass(records, start, end, {}, span_path))
    result = {
        "schedule": {"spec": spec.name, "loop": "closed",
                     "frames_per_sequence": spec.num_frames(DEFAULT)},
        "end_to_end": end_to_end(passes[0], setups, peak_rss_mb(), False),
        "passes": passes,
    }
    if trace:
        result["per_layer"], result["round_check"] = traced_metrics(
            passes[1], result["end_to_end"], False)
    return result


def print_report(args, result: dict, declared: dict,
                 fingerprint: dict) -> None:
    """Human-readable lines: provenance, then every metric with its unit
    and support (``*`` marks the metrics ``BENCHMARK.json`` gates on)."""
    gated = {m["name"] for m in declared["end_to_end"]}
    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"  environment: {json.dumps(fingerprint, sort_keys=True)}")
    print(f"  schedule:    {json.dumps(result['schedule'], sort_keys=True)}")
    print("  end to end (untraced pass):")
    for name, metric in result["end_to_end"].items():
        support = f"n={metric['n']}"
        if "beyond" in metric:
            support += f" beyond={metric['beyond']}"
        mark = "*" if name in gated else " "
        print(f"   {mark}{name:<22} {metric['value']:>14.4f} "
              f"{metric['unit']:<9} {support}")
    if "per_layer" in result:
        units = {m["name"]: m["unit"] for m in declared["per_layer"]}
        print("  per layer (traced pass):")
        for name, value in result["per_layer"].items():
            print(f"    {name:<44} {value:>14.4f} {units[name]}")
        check = result["round_check"]
        if check is not None:
            rounds, wall = (check["delivering_rounds"],
                            check["delivering_wall_s"])
            print(f"  round check: {'passed' if check['passed'] else 'FAILED'}"
                  f"; engine+nerf+sparw self "
                  f"{check['engine_nerf_sparw_self_s']:.6f} s of "
                  f"{check['rounds_wall_s']:.6f} s run_round wall; rounds "
                  f"delivering frames {rounds['traced']} traced, "
                  f"{rounds['server']} by the server, "
                  f"{wall['traced']:.6f} s against the server's "
                  f"{wall['server']:.6f} s; nerf/sparw outside rounds "
                  f"{check['outside_rounds']}, other layers inside rounds "
                  f"{check['foreign_in_rounds']}")


def main(argv=None) -> int:
    """Parse arguments, run one workload, print the report and result."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from repro.perf.envinfo import environment_fingerprint

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)
    OUT_DIR.mkdir(exist_ok=True)
    if args.workload == "single-sparw":
        result = run_single(args.seed, args.seconds, bool(args.trace))
    else:
        result = run_live(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    fingerprint = environment_fingerprint()
    print_report(args, result, declared, fingerprint)

    records = [r for run in result["passes"] for r in run.records]
    failed = sum(1 for r in records if r.status != "ok")
    if args.trace:
        chosen = {m["name"]: (result["per_layer"][m["name"]], m["unit"])
                  for m in declared["per_layer"]}
    else:
        chosen = {m["name"]: (result["end_to_end"][m["name"]]["value"],
                              m["unit"]) for m in declared["end_to_end"]}
    artifact = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "environment": fingerprint, "schedule": result["schedule"],
        "end_to_end": result["end_to_end"],
        "per_layer": result.get("per_layer"),
        "round_check": result.get("round_check"),
        "failures": sorted({r.status for r in records if r.status != "ok"}),
    }
    path = OUT_DIR / (f"result-{args.workload}-seed{args.seed}"
                      f"-trace{args.trace}.json")
    path.write_text(json.dumps(artifact, indent=1))
    check = result.get("round_check")
    correct = failed == 0 and (check is None or check["passed"])
    print(json.dumps({"correct": correct, "attempted": len(records),
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in chosen.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
