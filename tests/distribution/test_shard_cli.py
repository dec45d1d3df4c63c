"""Harness surface of the sharded field tier.

``--catalog/--zipf/--replication`` flow from the CLI through
``RunConfig`` validation into ``run_cluster``/``BENCH_cluster.json``,
with the same cross-command rejection discipline as every other
cluster-only knob — and un-sharded runs keep their exact report shape.
"""

import json

import pytest

from repro.harness.cli import main
from repro.harness.cluster import run_cluster
from repro.harness.configs import FAST
from repro.harness.runconfig import RunConfig, RunConfigError


class TestRunConfigValidation:
    def test_catalog_knobs_accepted_for_cluster(self):
        RunConfig(mode="cluster", catalog=80, zipf=1.3,
                  replication=2).validate()

    def test_zipf_and_replication_require_catalog(self):
        with pytest.raises(RunConfigError, match="--catalog"):
            RunConfig(mode="cluster", zipf=1.3).validate()
        with pytest.raises(RunConfigError, match="--catalog"):
            RunConfig(mode="cluster", replication=2).validate()

    def test_bounds(self):
        with pytest.raises(RunConfigError, match="--catalog"):
            RunConfig(mode="cluster", catalog=0).validate()
        with pytest.raises(RunConfigError, match="--zipf"):
            RunConfig(mode="cluster", catalog=8, zipf=-1.0).validate()
        with pytest.raises(RunConfigError, match="--replication"):
            RunConfig(mode="cluster", catalog=8,
                      replication=-1).validate()

    def test_serve_rejects_catalog_as_cluster_only(self):
        with pytest.raises(RunConfigError,
                           match="does not apply to mode serve"):
            RunConfig(mode="serve", catalog=8).validate()

    def test_realserve_rejects_catalog(self):
        with pytest.raises(RunConfigError, match="--catalog"):
            RunConfig(mode="realserve", catalog=8).validate()


class TestCliSurface:
    def test_cluster_run_reports_tier_metrics(self, capsys, tmp_path):
        assert main(["cluster", "--fast", "--workload",
                     "vr-lego:2,dolly-chair", "--catalog", "12",
                     "--zipf", "1.2", "--replication", "2",
                     "--placement", "shard_affinity", "--rate", "4",
                     "--duration", "4", "--workers", "2", "--frames", "2",
                     "--seed", "7",
                     "--json-out", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "hierarchy_hit_rate" in out
        payload = json.loads(
            (tmp_path / "BENCH_cluster.json").read_text())
        extra = payload["extra"]
        assert extra["catalog"] == 12
        assert extra["replication"] == 2
        assert extra["field_lookups"] > 0
        assert 0.0 <= extra["hierarchy_hit_rate"] <= 1.0

    def test_zipf_without_catalog_exits_2(self, capsys):
        assert main(["cluster", "--fast", "--zipf", "1.2"]) == 2
        assert "--catalog" in capsys.readouterr().err

    def test_frontier_rejects_catalog(self, capsys):
        assert main(["frontier", "--fast", "--catalog", "8"]) == 2
        assert "--catalog" in capsys.readouterr().err

    def test_serve_rejects_catalog(self, capsys):
        assert main(["serve", "--fast", "--catalog", "8"]) == 2
        assert "unrecognized arguments: --catalog" in capsys.readouterr().err


class TestRunClusterLibrarySurface:
    def test_unsharded_summary_keeps_legacy_shape(self):
        rows, summary = run_cluster(
            FAST, mix="vr-lego:2", rate_hz=3.0, duration_s=3.0,
            workers=2, frames=2, seed=3)
        assert "catalog" not in summary
        assert "hierarchy_hit_rate" not in summary
        assert all("field_bakes" not in row for row in rows)

    def test_sharded_summary_adds_tier_block(self):
        rows, summary = run_cluster(
            FAST, mix="vr-lego:2", rate_hz=3.0, duration_s=3.0,
            workers=2, frames=2, seed=3, catalog=12, zipf=1.2,
            replication=2, placement="shard_affinity")
        assert summary["catalog"] == 12
        assert summary["zipf_s"] == 1.2
        assert summary["field_lookups"] == summary["admitted"]
        assert (summary["ttff_bake_mean_ms"]
                + summary["ttff_transfer_mean_ms"]
                + summary["ttff_queue_mean_ms"]) == pytest.approx(
            summary["ttff_mean_ms"])
        assert all("field_bakes" in row for row in rows)
