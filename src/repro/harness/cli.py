"""Command-line experiment runner.

Run any figure reproduction, the multi-session serving workload, or the
open-loop cluster simulator from a shell::

    python -m repro.harness.cli fig07
    python -m repro.harness.cli fig19 --fast
    python -m repro.harness.cli all --fast --json-out bench-artifacts
    python -m repro.harness.cli serve --sessions 8 --fast
    python -m repro.harness.cli workloads
    python -m repro.harness.cli serve --fast \\
        --workload vr-lego:3 --workload dolly-chair:2
    python -m repro.harness.cli cluster --fast --arrivals poisson \\
        --rate 1.5 --duration 8 --workers 4 --placement cache_affinity
    python -m repro.harness.cli cluster --fast --governor adaptive \\
        --slo 2000 --rate 40 --duration 1 --workers 1 --queue-limit 2
    python -m repro.harness.cli frontier --fast --rates 8,24,72 --frames 3
    python -m repro.harness.cli experiment --table examples/experiments/quick.json
    python -m repro.harness.cli experiment --table t.json --resume --out runs
    python -m repro.harness.cli bench --quick
    python -m repro.harness.cli bench --kernels single_session.sparw
    python -m repro.harness.cli cluster --fast --trace run.trace.json
    python -m repro.harness.cli trace analyze run.trace.json --top 20
    python -m repro.harness.cli serve-live --fast --port 7070
    python -m repro.harness.cli loadgen --fast --rate 3 --duration 2 \\
        --seed 7 --frames 4 --time-scale 0.2
    python -m repro.harness.cli reconcile \\
        --input bench-artifacts/BENCH_realserve.json

Every command is an argparse subcommand that registers only the flags
:data:`~.runconfig.OPTIONS` declares for it, so a flag foreign to a
command is a parse error (exit 2); ``COMMAND --help`` is the flag
reference.  ``--fast`` uses the reduced test-scale configuration
(seconds per figure); the default scale matches the benchmarks.
``--json-out DIR`` persists a run's rows as ``BENCH_<name>.json``.
See docs/serving-guide.md (serve, cluster, frontier, serve-live,
loadgen, reconcile), docs/experiments.md (experiment),
docs/benchmarking.md (bench) and docs/observability.md (``--trace``,
``trace analyze``).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from ..control import GOVERNOR_MODES
from ..workloads import list_workloads
from .configs import DEFAULT, FAST
from .figures import EXPERIMENTS
from .reporting import print_table, write_bench_json
from .runconfig import (FIGURE, OPTIONS, RunConfigError, from_cli_args,
                        parse_rates)


def _config(args):
    return FAST if args.fast else DEFAULT


def _fail(args, message) -> int:
    print(f"{args.figure}: {message}", file=sys.stderr)
    return 2


def _message(exc: Exception):
    # ValueError/KeyError carry a crafted message in args[0]; OSError's
    # args[0] is the bare errno, so keep the whole exception ("[Errno 2]
    # No such file ...: 'trace.json'").
    return exc.args[0] if isinstance(exc, (ValueError, KeyError)) else exc


def _json_dir(args) -> str:
    # Commands that are run-table experiments (muBench-style) always
    # persist their machine-readable report, by default next to the
    # other bench artifacts.
    return "bench-artifacts" if args.json_out is None else args.json_out


def run_figure(name: str, config, json_dir: str | None = None) -> None:
    started = time.perf_counter()
    result = EXPERIMENTS[name](config)
    rows = result if isinstance(result, list) else [result]
    elapsed = time.perf_counter() - started
    print_table(rows, title=f"{name} ({elapsed:.1f}s)")
    if json_dir is not None:
        write_bench_json(json_dir, name, rows, elapsed, config=config)


def run_figures(args) -> int:
    names = sorted(EXPERIMENTS) if args.figure == "all" else [args.figure]
    for name in names:
        run_figure(name, _config(args), json_dir=args.json_out)
    return 0


def run_list(args) -> int:
    for name in sorted(EXPERIMENTS):
        print(name)
    for name in sorted(COMMANDS):
        if name not in ("all", "list"):
            print(name)
    return 0


def run_workloads_listing(args) -> int:
    rows = [spec.describe() for spec in list_workloads()]
    print_table(rows, title=f"workload registry ({len(rows)} specs)")
    return 0


def run_serve(args) -> int:
    from .runner import execute_cell
    cell = from_cli_args("serve", args)
    config = _config(args)
    started = time.perf_counter()
    result = execute_cell(cell, config=config)
    rows, summary = result.rows, result.summary
    elapsed = time.perf_counter() - started
    print_table(rows, title=f"serve: {len(rows)} sessions "
                            f"({elapsed:.1f}s wall)")
    cache = summary.get("cache") or {}
    print_table([{k: v for k, v in summary.items() if k != "cache"}],
                title="aggregate")
    if cache:
        print_table([{"cache": name, **stats}
                     for name, stats in sorted(cache.items())],
                    title="shared caches (counters: this run; "
                          "entries/bytes: current totals)")
    if args.json_out is not None:
        name = "serve_mixed" if cell.workloads is not None else "serve"
        write_bench_json(args.json_out, name, rows, elapsed,
                         config=config, extra=summary, kind="serve")
    return 0


def run_cluster_command(args) -> int:
    from .runner import execute_cell
    cell = from_cli_args("cluster", args)
    config = _config(args)
    started = time.perf_counter()
    try:
        result = execute_cell(cell, config=config)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(args, _message(exc))
    rows, summary = result.rows, result.summary
    elapsed = time.perf_counter() - started
    print_table(rows, title=f"cluster: {len(rows)} workers "
                            f"({elapsed:.1f}s wall)")
    nested = ("scale_events", "governor_events", "psnr_per_workload")
    print_table([{k: v for k, v in summary.items()
                  if k not in nested}], title="aggregate")
    if summary.get("psnr_per_workload"):
        print_table([{"workload": name, "mean_psnr_db": psnr}
                     for name, psnr in
                     sorted(summary["psnr_per_workload"].items())],
                    title="served quality (probe PSNR)")
    if summary.get("scale_events"):
        print_table(summary["scale_events"], title="autoscaler timeline")
    events = summary.get("governor_events") or []
    if events:
        print_table(events[:30],
                    title=f"governor timeline (first 30 of {len(events)})")
    path = write_bench_json(_json_dir(args), "cluster", rows, elapsed,
                            config=config, extra=summary, kind="cluster")
    print(f"\nwrote {path}")
    return 0


def _server_options(cell):
    """The ServerOptions one realserve RunConfig describes."""
    from ..server import ServerOptions
    return ServerOptions(
        host=cell.host or "127.0.0.1", port=cell.port or 0,
        use_cache=cell.use_cache, governor=cell.governor,
        slo_fps=cell.slo_fps, backend=cell.backend,
        engine_workers=cell.engine_workers)


def run_serve_live(args) -> int:
    import asyncio
    from ..server import FrameServer
    cell = from_cli_args("serve-live", args)
    config = _config(args)

    async def serve() -> None:
        server = FrameServer(config=config, options=_server_options(cell))
        await server.start()
        # flush: readiness probes tail this line through a redirect.
        print(f"frame server listening on "
              f"{server.options.host}:{server.port} (Ctrl-C to stop)",
              flush=True)
        try:
            await server.serve_forever()
        finally:
            await server.stop()

    try:
        asyncio.run(serve())
    except KeyboardInterrupt:
        print("serve-live: stopped")
    return 0


def run_loadgen_command(args) -> int:
    import asyncio
    from ..server import FrameServer, LoadgenOptions, run_loadgen
    from .cluster import DEFAULT_CLUSTER_MIX
    cell = from_cli_args("loadgen", args)
    config = _config(args)
    if args.connect is not None and (cell.host is not None
                                     or cell.port is not None):
        return _fail(args, "--connect targets a running server; --host/"
                           "--port configure the in-process one (pick one)")
    try:
        options = LoadgenOptions(
            mix=cell.workloads or DEFAULT_CLUSTER_MIX,
            arrivals=cell.arrivals or "poisson",
            rate_hz=2.0 if cell.rate_hz is None else cell.rate_hz,
            duration_s=(4.0 if cell.duration_s is None
                        else cell.duration_s),
            seed=cell.seed, frames=cell.frames,
            time_scale=(1.0 if cell.time_scale is None
                        else cell.time_scale),
            arrival_trace=cell.arrival_trace)
    except ValueError as exc:
        return _fail(args, exc.args[0])

    async def drive() -> dict:
        server = None
        if args.connect is None:
            from ..obs.runtime import current_tracer
            server = FrameServer(config=config,
                                 options=_server_options(cell),
                                 tracer=current_tracer())
            await server.start()
            host, port = server.options.host, server.port
        else:
            host, _, port_text = args.connect.rpartition(":")
            port = int(port_text)
        try:
            return await run_loadgen(host, port, options)
        finally:
            if server is not None:
                await server.stop()

    if args.connect is not None:
        try:
            host, _, port_text = args.connect.rpartition(":")
            if not host or not 0 < int(port_text) <= 65535:
                raise ValueError(args.connect)
        except ValueError:
            return _fail(args, f"bad --connect {args.connect!r}; expected "
                               "HOST:PORT")
    started = time.perf_counter()
    try:
        summary = asyncio.run(drive())
    except (ValueError, KeyError, OSError) as exc:
        return _fail(args, _message(exc))
    elapsed = time.perf_counter() - started
    # The reconcile command re-simulates from the artifact alone, so the
    # summary must pin down how the live server was configured too.
    summary.update({"governor": cell.governor, "slo_fps": cell.slo_fps,
                    "use_cache": cell.use_cache, "backend": cell.backend,
                    "scale": "fast" if args.fast else "default",
                    "self_served": args.connect is None})
    sessions = summary.pop("sessions")
    rows = [{"workload": s["workload"], "scheduled_s": s["scheduled_s"],
             "status": s["status"], "frames": s["frames"],
             "ttff_ms": (s["ttff_s"] or 0.0) * 1e3,
             "first_digest": (s["digests"][0] if s["digests"] else None)}
            for s in sessions]
    print_table(rows, title=f"loadgen: {len(rows)} sessions "
                            f"({elapsed:.1f}s wall)")
    print_table([{k: summary[k] for k in (
        "sessions_ok", "frames_total", "ttff_mean_ms", "ttff_p95_ms",
        "p50_latency_ms", "p95_latency_ms", "p99_latency_ms")}],
        title="measured wall-clock quantiles")
    failed = [s for s in sessions if s["status"] != "ok"]
    if failed:
        print(f"\nloadgen: {len(failed)}/{len(sessions)} sessions "
              "failed", file=sys.stderr)
    path = write_bench_json(_json_dir(args), "realserve", rows, elapsed,
                            config=config, extra=summary,
                            kind="realserve")
    print(f"\nwrote {path}")
    return 0 if not failed else 1


def run_reconcile_command(args) -> int:
    import json

    from ..server import reconcile_report
    try:
        artifact = json.loads(Path(args.input).read_text())
    except OSError as exc:
        return _fail(args, exc)
    except json.JSONDecodeError as exc:
        return _fail(args, f"{args.input} is not JSON: {exc}")
    if artifact.get("kind") != "realserve":
        return _fail(args, f"{args.input} holds a {artifact.get('kind')!r} "
                           "artifact, need 'realserve' (run 'loadgen' "
                           "first)")
    measured = artifact.get("extra") or {}
    scale = measured.get("scale", "fast" if args.fast else "default")
    config = FAST if scale == "fast" else DEFAULT
    started = time.perf_counter()
    try:
        report = reconcile_report(
            measured, config,
            use_cache=measured.get("use_cache", True),
            governor=measured.get("governor", "off"),
            slo_fps=measured.get("slo_fps"),
            backend=measured.get("backend"))
    except (ValueError, KeyError) as exc:
        return _fail(args, exc.args[0])
    elapsed = time.perf_counter() - started
    print_table(report["rows"],
                title=f"sim-vs-real reconciliation ({elapsed:.1f}s wall)")
    print_table([{k: report[k] for k in (
        "mix", "rate_hz", "duration_s", "seed", "sessions_measured",
        "sessions_predicted", "frames_measured", "frames_predicted")}],
        title="matched run")
    path = write_bench_json(
        _json_dir(args), "reconcile", report["rows"], elapsed,
        config=config,
        extra={k: v for k, v in report.items() if k != "rows"},
        kind="reconcile")
    print(f"\nwrote {path}")
    return 0


def run_bench_command(args) -> int:
    from ..perf.bench import run_benchmarks
    config = FAST if args.quick else _config(args)  # --quick implies FAST
    kernels = None
    if args.kernels is not None:
        kernels = [part.strip() for part in args.kernels.split(",")
                   if part.strip()]
        if not kernels:
            return _fail(args, f"bad --kernels {args.kernels!r}; expected "
                               "comma-separated kernel names")
    if args.repeat < 1:
        return _fail(args, f"--repeat must be >= 1 (got {args.repeat})")
    if args.engine_workers is not None and args.backend != "parallel":
        return _fail(args, "--engine-workers requires --backend parallel")
    started = time.perf_counter()
    try:
        rows, extra = run_benchmarks(config=config, quick=args.quick,
                                     kernels=kernels, repeat=args.repeat,
                                     backend=args.backend,
                                     engine_workers=args.engine_workers)
    except KeyError as exc:
        return _fail(args, exc.args[0])
    elapsed = time.perf_counter() - started
    # Rows are heterogeneous (per-kernel derived metrics); show the union
    # of their columns instead of the first row's keys.  The per-kernel
    # "sections" dicts are structured artifact detail, not a table cell.
    columns = list(dict.fromkeys(key for row in rows for key in row
                                 if key != "sections"))
    print_table(rows, columns=columns,
                title=f"bench: {len(rows)} kernels ({elapsed:.1f}s wall)")
    # Bench runs are the perf trajectory: compare runs with
    # compare_bench.py.
    path = write_bench_json(_json_dir(args), "perf", rows, elapsed,
                            config=config, extra=extra, kind="perf")
    print(f"\nwrote {path}")
    return 0


def run_frontier_command(args) -> int:
    from .frontier import run_frontier
    cell = from_cli_args("frontier", args)
    rates = parse_rates(args.rates) if args.rates is not None else None
    config = _config(args)
    # --governor restricts the sweep to one mode (default: all three).
    modes = GOVERNOR_MODES if args.governor is None else (args.governor,)
    kwargs = {
        key: value for key, value in (
            ("rates", rates),
            ("duration_s", cell.duration_s),
            ("frames", cell.frames),
        ) if value is not None}
    started = time.perf_counter()
    try:
        rows, summary = run_frontier(
            config, mix=cell.workloads,
            workers=4 if cell.workers is None else cell.workers,
            placement=cell.placement or "least_loaded",
            queue_limit=4 if cell.queue_limit is None else cell.queue_limit,
            seed=cell.seed, modes=modes,
            slo_fps=cell.slo_fps, use_cache=cell.use_cache, **kwargs)
    except (ValueError, KeyError) as exc:
        return _fail(args, exc.args[0])
    elapsed = time.perf_counter() - started
    print_table(rows, title=f"frontier: {len(rows)} cells "
                            f"({elapsed:.1f}s wall)")
    print_table([summary], title="sweep")
    path = write_bench_json(_json_dir(args), "frontier", rows, elapsed,
                            config=config, extra=summary, kind="frontier")
    print(f"\nwrote {path}")
    return 0


def run_trace_command(args) -> int:
    from ..obs.analyze import main as analyze_main
    if args.top < 1:
        return _fail(args, f"--top must be >= 1 (got {args.top})")
    return analyze_main(args.path, top=args.top)


def run_experiment_command(args) -> int:
    from .runner import ExperimentTable, run_table
    out_dir = "bench-artifacts" if args.out is None else args.out
    try:
        table = ExperimentTable.from_file(args.table)
        rows, extra, path = run_table(
            table, out_dir, resume=args.resume,
            default_scale="fast" if args.fast else "default",
            log=print)
    except (ValueError, KeyError, OSError) as exc:
        return _fail(args, _message(exc))
    columns = list(dict.fromkeys(key for row in rows for key in row))
    print_table(rows, columns=columns,
                title=f"experiment {table.name}: {len(rows)} cells "
                      f"({extra['executed']} executed, "
                      f"{extra['resumed']} resumed)")
    print(f"\nwrote {path}")
    return 0


# Every non-figure command: name -> (one-line help, handler).  Figure
# ids come from EXPERIMENTS; which flags each command takes comes from
# runconfig.OPTIONS.
COMMANDS = {
    "all": ("run every figure back to back", run_figures),
    "list": ("print the figure ids and commands", run_list),
    "workloads": ("list the named workload registry",
                  run_workloads_listing),
    "serve": ("serve a batched multi-session workload on one SoC",
              run_serve),
    "cluster": ("simulate sessions arriving at a fleet of SoC workers",
                run_cluster_command),
    "frontier": ("sweep governor mode x offered load (quality vs "
                 "throughput)", run_frontier_command),
    "experiment": ("run a factorial run table (see docs/experiments.md)",
                   run_experiment_command),
    "bench": ("hot-path microbenchmarks -> BENCH_perf.json",
              run_bench_command),
    "serve-live": ("bind the real asyncio frame server on a TCP port",
                   run_serve_live),
    "loadgen": ("replay a seeded arrival schedule against a frame server "
                "-> BENCH_realserve.json", run_loadgen_command),
    "reconcile": ("diff a loadgen artifact against the cluster simulator",
                  run_reconcile_command),
    "trace": ("inspect a --trace artifact: trace analyze PATH",
              run_trace_command),
}


def build_parser() -> argparse.ArgumentParser:
    """One subcommand per command and figure id, each registering only
    the flags :data:`~.runconfig.OPTIONS` declares for it.

    Abbreviations are off, or frontier would read a foreign '--rate' as
    its own '--rates'.
    """
    parser = argparse.ArgumentParser(
        prog="repro.harness.cli", allow_abbrev=False,
        description="Reproduce Cicero (ISCA 2024) figures, or serve, "
                    "simulate and benchmark batched neural rendering.",
        epilog="'COMMAND --help' lists the flags a command accepts.")
    subparsers = parser.add_subparsers(dest="figure", metavar="COMMAND",
                                       required=True)
    commands = {name: ((EXPERIMENTS[name].__doc__ or name).splitlines()[0],
                       run_figures) for name in sorted(EXPERIMENTS)}
    commands.update(COMMANDS)
    for name, (help_text, handler) in commands.items():
        command = subparsers.add_parser(name, help=help_text,
                                        description=help_text,
                                        allow_abbrev=False)
        if name == "trace":
            command = command.add_subparsers(
                dest="action", metavar="analyze", required=True).add_parser(
                "analyze", help="summarise a trace from the artifact alone",
                allow_abbrev=False)
            command.add_argument("path", metavar="PATH")
        key = FIGURE if handler is run_figures else name
        for option in OPTIONS:
            if key in option.commands:
                dest = {} if option.field is None else {"dest": option.field}
                command.add_argument(option.flag, **dest, **option.kwargs)
        command.set_defaults(func=handler)
    return parser


def _run_observed(args) -> int:
    """Run one observed command under an obs activation.

    Metrics are always registered (they snapshot into the command's
    BENCH artifacts via ``bench_payload``); a tracer is attached only
    with ``--trace PATH``, and the trace is written after a successful
    run.
    """
    from ..obs import MetricsRegistry, Observation, Tracer, activate
    tracer = Tracer() if args.trace is not None else None
    with activate(Observation(tracer=tracer, metrics=MetricsRegistry())):
        code = args.func(args)
    if tracer is not None and code == 0:
        path = tracer.write(args.trace)
        print(f"wrote {path} ({len(tracer)} trace events)")
    return code


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a rejected flag (2), or --help (0)
        return exc.code
    json_out = getattr(args, "json_out", None)
    if json_out is not None and Path(json_out).exists() \
            and not Path(json_out).is_dir():
        print(f"--json-out: {json_out!r} exists and is not a directory",
              file=sys.stderr)
        return 2
    try:
        # The observed commands are exactly those that accept --trace.
        if hasattr(args, "trace"):
            return _run_observed(args)
        return args.func(args)
    except RunConfigError as exc:
        return _fail(args, exc.args[0])


if __name__ == "__main__":
    raise SystemExit(main())
