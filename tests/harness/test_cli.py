"""Tests for the CLI experiment runner."""

import json

import pytest

from repro.harness.cli import build_parser, main


class TestParser:
    def test_figure_argument(self):
        args = build_parser().parse_args(["fig07"])
        assert args.figure == "fig07"
        assert not args.fast

    def test_fast_flag(self):
        args = build_parser().parse_args(["fig07", "--fast"])
        assert args.fast

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "--fast"])
        assert args.figure == "serve"
        # Unset flags stay None: the executing harness owns the
        # defaults (4 sessions, round_robin).
        assert args.sessions is None
        assert args.scheduler is None
        assert args.json_out is None


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig07" in out and "fig26" in out and "serve" in out

    def test_unknown_figure(self, capsys):
        assert main(["fig99"]) == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err
        # The message tells the user what *is* available.
        assert "fig07" in err and "serve" in err

    def test_runs_cheap_figure_fast(self, capsys):
        assert main(["fig23", "--fast"]) == 0
        out = capsys.readouterr().out
        assert "fig23" in out
        assert "vft_kb" in out

    def test_json_out_writes_artifact(self, capsys, tmp_path):
        assert main(["fig23", "--fast", "--json-out", str(tmp_path)]) == 0
        path = tmp_path / "BENCH_fig23.json"
        assert path.exists()
        payload = json.loads(path.read_text())
        assert payload["figure"] == "fig23"
        assert payload["wall_time_s"] >= 0.0
        assert payload["config_scale"]["image_size"] == 48
        assert any("vft_kb" in row for row in payload["rows"])


class TestServe:
    def test_serve_reports_aggregate_fps_and_p95(self, capsys, tmp_path):
        assert main(["serve", "--fast", "--sessions", "2",
                     "--frames", "3", "--json-out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "aggregate_fps" in out
        assert "p95_latency_ms" in out
        payload = json.loads((tmp_path / "BENCH_serve.json").read_text())
        assert payload["extra"]["sessions"] == 2
        assert payload["extra"]["total_frames"] == 6
        assert payload["extra"]["aggregate_fps"] > 0
        assert payload["extra"]["p95_latency_ms"] > 0
        assert len(payload["rows"]) == 2

    def test_serve_deadline_scheduler(self, capsys):
        assert main(["serve", "--fast", "--sessions", "2", "--frames", "2",
                     "--scheduler", "deadline"]) == 0
        assert "deadline" in capsys.readouterr().out

    def test_serve_rejects_bad_session_count(self, capsys):
        assert main(["serve", "--fast", "--sessions", "0"]) == 2
        assert "--sessions" in capsys.readouterr().err

    def test_serve_rejects_unknown_variant(self, capsys):
        assert main(["serve", "--fast", "--sessions", "1", "--frames", "2",
                     "--variant", "warpcore"]) == 2
        assert "warpcore" in capsys.readouterr().err

    def test_serve_rejects_unknown_scene(self, capsys):
        assert main(["serve", "--fast", "--sessions", "1", "--frames", "2",
                     "--scene", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown scene" in err and "lego" in err

    def test_serve_rejects_bad_frame_count(self, capsys):
        assert main(["serve", "--fast", "--frames", "0"]) == 2
        assert "--frames" in capsys.readouterr().err

    def test_serve_rejects_unknown_algorithm(self, capsys):
        assert main(["serve", "--fast", "--sessions", "1",
                     "--algorithm", "gaussians"]) == 2
        err = capsys.readouterr().err
        assert "unknown algorithm" in err and "directvoxgo" in err


class TestWorkloads:
    def test_workloads_listing(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "vr-lego" in out and "dolly-chair" in out
        assert "trajectory" in out  # table header

    def test_list_includes_workloads_command(self, capsys):
        assert main(["list"]) == 0
        assert "workloads" in capsys.readouterr().out

    def test_serve_mixed_workloads_reports_cache_stats(self, capsys,
                                                       tmp_path):
        assert main(["serve", "--fast", "--frames", "2",
                     "--workload", "vr-lego:2",
                     "--workload", "vr-headshake",
                     "--json-out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "vr-lego-01" in out
        assert "ref_cache_hits" in out
        payload = json.loads((tmp_path / "BENCH_serve_mixed.json").read_text())
        assert payload["extra"]["sessions"] == 3
        # The duplicated vr-lego sessions share reference renders.
        assert payload["extra"]["ref_cache_hits"] > 0
        assert payload["extra"]["cache"]["references"]["hits"] > 0

    def test_serve_no_cache_flag(self, capsys):
        assert main(["serve", "--fast", "--frames", "2",
                     "--workload", "vr-lego:2", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "cache_enabled" in out

    def test_serve_rejects_unknown_workload(self, capsys):
        assert main(["serve", "--fast", "--workload", "bogus"]) == 2
        err = capsys.readouterr().err
        assert "unknown workload" in err and "vr-lego" in err

    def test_serve_repeated_workload_flags_merge(self, capsys):
        # The same name in two --workload flags is counted, not crashed on.
        assert main(["serve", "--fast", "--frames", "2",
                     "--workload", "vr-lego", "--workload", "vr-lego"]) == 0
        out = capsys.readouterr().out
        assert "vr-lego-00" in out and "vr-lego-01" in out

    def test_serve_rejects_bad_workload_count(self, capsys):
        assert main(["serve", "--fast", "--workload", "vr-lego:0"]) == 2
        assert "count" in capsys.readouterr().err

    def test_serve_rejects_workload_scene_combination(self, capsys):
        assert main(["serve", "--fast", "--workload", "vr-lego",
                     "--scene", "lego"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_serve_rejects_workload_variant_combination(self, capsys):
        # The spec fixes the SoC variant; an explicit --variant would be
        # silently ignored, so it is rejected instead.
        assert main(["serve", "--fast", "--workload", "vr-lego",
                     "--variant", "gpu"]) == 2
        assert "--variant" in capsys.readouterr().err

    def test_serve_rejects_workload_sessions_combination(self, capsys):
        # The mix counts decide the session count; an explicit --sessions
        # would be silently ignored, so it is rejected instead.
        assert main(["serve", "--fast", "--workload", "vr-lego",
                     "--sessions", "20"]) == 2
        assert "--sessions" in capsys.readouterr().err


class TestGovernorCli:
    def test_list_includes_frontier(self, capsys):
        assert main(["list"]) == 0
        assert "frontier" in capsys.readouterr().out

    def test_serve_governor_requires_workload_mix(self, capsys):
        assert main(["serve", "--fast", "--governor", "adaptive"]) == 2
        assert "--workload" in capsys.readouterr().err

    def test_serve_rejects_bad_slo(self, capsys):
        assert main(["serve", "--fast", "--workload", "vr-lego",
                     "--slo", "0"]) == 2
        assert "--slo" in capsys.readouterr().err

    def test_serve_rejects_bad_ray_budget(self, capsys):
        assert main(["serve", "--fast", "--ray-budget", "0"]) == 2
        assert "--ray-budget" in capsys.readouterr().err

    def test_cluster_rejects_ray_budget(self, capsys):
        assert main(["cluster", "--fast", "--ray-budget", "64"]) == 2
        assert ("unrecognized arguments: --ray-budget"
                in capsys.readouterr().err)

    def test_cluster_rejects_rates(self, capsys):
        assert main(["cluster", "--fast", "--rates", "1,2,3"]) == 2
        assert "unrecognized arguments: --rates" in capsys.readouterr().err

    def test_frontier_rejects_two_load_points(self, capsys):
        assert main(["frontier", "--fast", "--rates", "1,2"]) == 2
        assert ">= 3" in capsys.readouterr().err

    def test_frontier_rejects_malformed_rates(self, capsys):
        assert main(["frontier", "--fast", "--rates", "a,b,c"]) == 2
        assert "bad --rates" in capsys.readouterr().err

    def test_frontier_rejects_serve_options(self, capsys):
        assert main(["frontier", "--fast", "--sessions", "4"]) == 2
        assert ("unrecognized arguments: --sessions"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", [
        ["serve", "--fast", "--host", "127.0.0.1"],
        ["serve", "--fast", "--port", "7070"],
        ["cluster", "--fast", "--time-scale", "0.5"],
        ["frontier", "--fast", "--rates", "1,2,3", "--time-scale", "2"],
    ], ids=["serve-host", "serve-port", "cluster-scale", "frontier-scale"])
    def test_virtual_commands_reject_realserve_flags(self, capsys, argv):
        assert main(argv) == 2
        assert (f"unrecognized arguments: {argv[-2]}"
                in capsys.readouterr().err)

    def test_governed_serve_reports_tier_state(self, capsys, tmp_path):
        rc = main(["serve", "--fast", "--frames", "3",
                   "--workload", "vr-lego:2", "--governor", "static",
                   "--json-out", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "quality_level" in out
        payload = json.loads(
            (tmp_path / "BENCH_serve_mixed.json").read_text())
        assert payload["extra"]["governor"] == "static"
        assert all(row["quality_level"] == 2 for row in payload["rows"])

    def test_governed_cluster_reports_quality(self, capsys, tmp_path):
        rc = main(["cluster", "--fast", "--governor", "adaptive",
                   "--slo", "3000", "--rate", "30", "--duration", "0.5",
                   "--workers", "1", "--queue-limit", "2",
                   "--frames", "2", "--seed", "2",
                   "--json-out", str(tmp_path)])
        assert rc == 0
        payload = json.loads(
            (tmp_path / "BENCH_cluster.json").read_text())
        extra = payload["extra"]
        assert extra["governor"] == "adaptive"
        assert extra["quality_floor_ok"] is True
        assert extra["mean_psnr"] > 0.0

    def test_frontier_rejects_explicit_arrivals(self, capsys):
        assert main(["frontier", "--fast", "--arrivals", "diurnal"]) == 2
        assert "--arrivals" in capsys.readouterr().err

    def test_frontier_honours_placement(self):
        # The frontier delegates every cell to the experiment runner, so
        # the placement knob must survive the RunConfig hand-off.
        from repro.harness import frontier as frontier_mod
        from repro.harness import runner as runner_mod
        seen = []
        real = runner_mod.simulate_cluster

        def spy(*args, **kwargs):
            seen.append(kwargs["placement"])
            return real(*args, **kwargs)

        runner_mod.simulate_cluster = spy
        try:
            frontier_mod.run_frontier(
                __import__("repro.harness.configs",
                           fromlist=["FAST"]).FAST,
                mix="vr-lego:1", rates=(5.0, 6.0, 7.0),
                duration_s=0.2, frames=1, modes=("off",),
                placement="cache_affinity")
        finally:
            runner_mod.simulate_cluster = real
        assert seen and all(p == "cache_affinity" for p in seen)


# A valid value for every flag that takes one, so a rejection below can
# only come from the flag being foreign to its command.
_VALUES = {
    "--sessions": "2", "--scheduler": "deadline", "--variant": "gpu",
    "--scene": "lego", "--algorithm": "directvoxgo", "--ray-budget": "64",
    "--rates": "1,2,3", "--arrivals": "poisson", "--rate": "2",
    "--duration": "1", "--workers": "2", "--placement": "least_loaded",
    "--queue-limit": "2", "--arrival-trace": "t.json", "--autoscale": None,
    "--min-workers": "1", "--max-workers": "2", "--scale-up-latency": "1",
    "--catalog": "8", "--zipf": "1.1", "--replication": "2",
    "--host": "127.0.0.1", "--port": "7000", "--time-scale": "0.5",
    "--frames": "2", "--workload": "vr-lego", "--trace": "t.json",
    "--connect": "127.0.0.1:7000",
}
# Every (command, flag) pair the hand-written cross-command lists
# rejected before the CLI moved to per-command subparsers.
_FOREIGN = {
    "serve": ("--arrivals", "--rate", "--duration", "--workers",
              "--placement", "--queue-limit", "--autoscale",
              "--min-workers", "--max-workers", "--scale-up-latency",
              "--catalog", "--zipf", "--replication", "--host", "--port",
              "--time-scale"),
    "cluster": ("--sessions", "--scheduler", "--variant", "--scene",
                "--algorithm", "--ray-budget", "--rates", "--host",
                "--port", "--time-scale"),
    "frontier": ("--sessions", "--scheduler", "--variant", "--scene",
                 "--algorithm", "--ray-budget", "--arrivals", "--rate",
                 "--arrival-trace", "--autoscale", "--min-workers",
                 "--max-workers", "--scale-up-latency", "--catalog",
                 "--zipf", "--replication", "--host", "--port",
                 "--time-scale"),
    "serve-live": ("--frames", "--workload", "--trace", "--arrivals",
                   "--rate", "--duration", "--arrival-trace", "--connect",
                   "--time-scale"),
}
# bench --trace: see tests/obs/test_obs_cli_trace.py.
_TRACE_FOREIGN = {
    "reconcile": ["reconcile", "--input", "x.json"],
    "figure": ["fig23", "--fast"],
    "all": ["all", "--fast"],
}


class TestForeignFlags:
    @pytest.mark.parametrize("command,flag", [
        (command, flag) for command, flags in _FOREIGN.items()
        for flag in flags])
    def test_foreign_flag_is_a_parse_error(self, capsys, command, flag):
        value = _VALUES[flag]
        argv = [command, "--fast", flag] + ([value] if value else [])
        assert main(argv) == 2
        assert (f"unrecognized arguments: {flag}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv", list(_TRACE_FOREIGN.values()),
                             ids=list(_TRACE_FOREIGN))
    def test_trace_only_on_observed_commands(self, capsys, argv):
        assert main([*argv, "--trace", "t.json"]) == 2
        assert "unrecognized arguments: --trace" in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        assert main(["cluster", "--help"]) == 0
        out = capsys.readouterr().out
        assert "--placement" in out and "--sessions" not in out


class TestOptionDeclaration:
    def test_every_field_is_declared_once(self):
        import dataclasses

        from repro.harness.runconfig import OPTIONS, RunConfig
        declared = [option.field for option in OPTIONS
                    if option.field is not None]
        assert len(declared) == len(set(declared))
        fields = {f.name for f in dataclasses.fields(RunConfig)}
        assert set(declared) == fields - {"mode", "scale", "label",
                                          "repetition"}

    def test_every_option_names_real_commands(self):
        from repro.harness.cli import COMMANDS
        from repro.harness.runconfig import FIGURE, OPTIONS
        for option in OPTIONS:
            assert set(option.commands) <= set(COMMANDS) | {FIGURE}, \
                option.flag


def _documented_invocations():
    """Every ``python -m repro.harness.cli`` line in the README, docs/
    and the CLI module docstring, as argv lists."""
    import shlex
    from pathlib import Path

    from repro.harness import cli
    root = Path(__file__).resolve().parents[2]
    sources = {path.relative_to(root).as_posix(): path.read_text()
               for path in [root / "README.md",
                            *sorted((root / "docs").glob("*.md"))]}
    sources["repro.harness.cli"] = cli.__doc__.replace("\\\\", "\\")
    marker = "python -m repro.harness.cli"
    found = []
    for name, text in sources.items():
        for line in text.replace("\\\n", " ").splitlines():
            if marker not in line:
                continue
            command = line.split(marker, 1)[1].split("`", 1)[0]
            argv = []
            for token in shlex.split(command, comments=True):
                if token[0] in "|>&;":
                    break
                argv.append(token)
            found.append(pytest.param(argv, id=f"{name}:{' '.join(argv)}"))
    return found


@pytest.mark.parametrize("argv", _documented_invocations())
def test_documented_invocation_parses(argv, capsys):
    try:
        build_parser().parse_args(argv)
    except SystemExit as exc:  # only --help may exit, and with 0
        assert exc.code == 0, capsys.readouterr().err
