"""Loadgen determinism + the sim-vs-real reconciliation artifact.

Acceptance properties from the serving roadmap: ``cli loadgen --seed S``
run twice issues the *identical* request schedule; measured wall-clock
quantiles land finite and nonzero in ``BENCH_realserve.json``; and
``cli reconcile`` pairs every measured quantile with a matched
``simulate_cluster`` prediction in a strict-JSON gap report.
"""

from __future__ import annotations

import asyncio
import json
import math

import pytest

from repro.harness.cli import main as cli_main
from repro.harness.configs import FAST
from repro.server import (
    FrameServer,
    LoadgenOptions,
    ServerOptions,
    loadgen_schedule,
    run_loadgen,
)
from repro.server.reconcile import RECONCILE_METRICS, reconcile_report

QUANTILE_KEYS = ("ttff_mean_ms", "ttff_p95_ms", "p50_latency_ms",
                 "p95_latency_ms", "p99_latency_ms")

FAST_OPTIONS = dict(mix="vr-lego:2,dolly-chair:1", arrivals="poisson",
                    rate_hz=3.0, duration_s=1.0, seed=11, frames=2,
                    time_scale=0.05)


class TestScheduleDeterminism:
    @pytest.mark.parametrize("kind", ["poisson", "deterministic",
                                      "diurnal"])
    def test_same_seed_same_schedule(self, kind):
        options = LoadgenOptions(arrivals=kind, rate_hz=4.0,
                                 duration_s=2.0, seed=3)
        assert loadgen_schedule(options) == loadgen_schedule(options)

    def test_different_seed_different_schedule(self):
        base = LoadgenOptions(arrivals="poisson", rate_hz=4.0,
                              duration_s=2.0, seed=3)
        other = LoadgenOptions(arrivals="poisson", rate_hz=4.0,
                               duration_s=2.0, seed=4)
        assert loadgen_schedule(base) != loadgen_schedule(other)


def _measure(options: LoadgenOptions) -> dict:
    async def scenario():
        server = FrameServer(config=FAST, options=ServerOptions())
        await server.start()
        try:
            return await run_loadgen("127.0.0.1", server.port, options)
        finally:
            await server.stop()

    return asyncio.run(scenario())


class TestRunLoadgen:
    def test_measures_finite_nonzero_quantiles(self):
        summary = _measure(LoadgenOptions(**FAST_OPTIONS))
        assert summary["sessions_ok"] == summary["sessions_total"] > 0
        assert (summary["frames_total"]
                == summary["sessions_total"] * FAST_OPTIONS["frames"])
        for key in QUANTILE_KEYS:
            assert math.isfinite(summary[key]) and summary[key] > 0.0
        # The schedule the run replayed is recorded for reproducibility.
        assert (summary["schedule"]
                == [{"t": a.time_s, "workload": a.spec.name} for a in
                    loadgen_schedule(LoadgenOptions(**FAST_OPTIONS))])

    def test_connect_refused_is_reported_not_raised(self):
        options = LoadgenOptions(**{**FAST_OPTIONS,
                                    "connect_timeout_s": 2.0})
        summary = asyncio.run(run_loadgen("127.0.0.1", 1, options))
        assert summary["sessions_ok"] == 0
        assert all(s["status"].startswith("connect_failed")
                   for s in summary["sessions"])


class TestReconcileReport:
    def test_pairs_every_quantile_with_a_prediction(self):
        measured = _measure(LoadgenOptions(**FAST_OPTIONS))
        report = reconcile_report(measured, FAST)
        assert [row["metric"] for row in report["rows"]] == \
            list(RECONCILE_METRICS)
        for row in report["rows"]:
            assert math.isfinite(row["measured_ms"])
            assert math.isfinite(row["predicted_ms"])
            assert row["gap_ms"] == pytest.approx(
                row["measured_ms"] - row["predicted_ms"])
            if row["predicted_ms"] > 0.0:
                assert row["ratio"] == pytest.approx(
                    row["measured_ms"] / row["predicted_ms"])
        # The matched simulation replays the same arrival schedule.
        assert report["sessions_predicted"] == measured["sessions_total"]
        assert report["frames_predicted"] == measured["frames_total"]

    def test_report_is_strict_json(self):
        from repro.harness.reporting import safe_json_dumps
        measured = _measure(LoadgenOptions(**FAST_OPTIONS))
        text = safe_json_dumps(reconcile_report(measured, FAST))

        def reject(token):
            raise AssertionError(f"non-strict constant {token!r}")

        back = json.loads(text, parse_constant=reject)
        assert len(back["rows"]) == len(RECONCILE_METRICS)


def _loadgen_argv(out_dir: str) -> list:
    return ["loadgen", "--fast", "--workload", "vr-lego:2",
            "--workload", "dolly-chair:1", "--rate", "3",
            "--duration", "1", "--seed", "11", "--frames", "2",
            "--time-scale", "0.05", "--json-out", out_dir]


class TestCli:
    def test_loadgen_same_seed_same_request_schedule(self, tmp_path):
        for run in ("one", "two"):
            assert cli_main(_loadgen_argv(str(tmp_path / run))) == 0
        schedules = []
        for run in ("one", "two"):
            artifact = json.loads(
                (tmp_path / run / "BENCH_realserve.json").read_text())
            assert artifact["kind"] == "realserve"
            schedules.append(artifact["extra"]["schedule"])
            for key in QUANTILE_KEYS:
                value = artifact["extra"][key]
                assert math.isfinite(value) and value > 0.0
        assert schedules[0] == schedules[1]

    def test_reconcile_cli_emits_gap_report(self, tmp_path):
        out = str(tmp_path)
        assert cli_main(_loadgen_argv(out)) == 0
        assert cli_main(["reconcile", "--input",
                         f"{out}/BENCH_realserve.json",
                         "--json-out", out]) == 0
        report = json.loads(
            (tmp_path / "BENCH_reconcile.json").read_text())
        assert report["kind"] == "reconcile"
        rows = {row["metric"]: row for row in report["rows"]}
        assert set(rows) == set(RECONCILE_METRICS)
        assert all("predicted_ms" in row and "measured_ms" in row
                   for row in rows.values())

    def test_reconcile_requires_a_realserve_artifact(self, tmp_path,
                                                     capsys):
        bogus = tmp_path / "BENCH_other.json"
        bogus.write_text(json.dumps({"kind": "cluster"}))
        assert cli_main(["reconcile", "--input", str(bogus)]) == 2
        assert "need 'realserve'" in capsys.readouterr().err

    def test_serve_live_rejects_loadgen_flags(self, capsys):
        assert cli_main(["serve-live", "--fast", "--rate", "3"]) == 2
        assert "unrecognized arguments: --rate" in capsys.readouterr().err

    def test_loadgen_rejects_conflicting_targets(self, capsys):
        assert cli_main(["loadgen", "--fast", "--connect",
                         "localhost:7070", "--port", "7071"]) == 2
        assert "pick one" in capsys.readouterr().err
