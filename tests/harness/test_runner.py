"""Factorial experiment runner: tables, hashing, resume, economics."""

import json
import math
from pathlib import Path

import pytest

from repro.harness.configs import FAST
from repro.harness.runconfig import (
    COMMAND_MODES,
    RunConfig,
    RunConfigError,
    from_cli_args,
)
from repro.harness.runner import ExperimentTable, execute_cell, run_table

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "experiments"

# config_hash() of every cell of the checked-in example tables, as
# recorded before the CLI moved to per-command subparsers: --resume
# artifacts written by either CLI must keep matching.
PINNED_HASHES = {
    "quick.json": [
        "53e78b0d2e7877102e0a153a4e46e1f996dbc2394f00f77b04ba1856f9ecb822",
        "3d57807b144cb77709d5b28591ee053fa7e0d983af58f406396634bd99504e42",
        "9d34811992ebcf4969f2241cb310a6da7b80dfbeae61de3d92a90e52c0c73d13",
        "176b1464a193c8bfcfdaaa75460d0262ef6bf7ad5c75fe776a93efbb9ea51485",
    ],
    "frontier-fast.json": [
        "1cbe68cf030cd8c8b5e3c726cd77f0a1ad40841b98d03e6e3299e73b04a8c8f1",
        "740a1aadb1f11f034f10ecb0142149d9eeea3fbfa26016b484d877c65b6000b8",
        "f77f160c6dcef23f7ffed9760cb6f03b7e466ed6728f714f66e02c4ed230be00",
        "e2a94ff8ebd2337b0b1c56f2a726b0d879ded4e14f7869bdc6119c503ef14a92",
        "2a99a9fb70a96b9f3afde321f3beeb5f3d2cc12f94894e4092c0423d4877e96a",
        "4631ab65d8e8b5301e1ac31390eda4d23e7dfbb63b61b8e8eba96d7fc7fb78b8",
        "76f25523c1a5796bfc715cb852c424479704b846d853d1e7dcf4b904008efeb4",
        "1b217ad09306012cd260a39ad797dba7c7c74df7822bdb55055518c25239e2b2",
        "ff3d0aa28484f6e41151b6f6128a1beb92a838d83c7b07b9648e1f58ba19c748",
    ],
}

QUICK_TABLE = {
    "name": "quick",
    "base": {"mode": "cluster", "scale": "fast", "duration_s": 0.4,
             "frames": 2, "workers": 2, "queue_limit": 2, "seed": 3},
    "axes": {"placement": ["least_loaded", "cache_affinity"],
             "rate_hz": [5.0, 9.0]},
}


def strict_loads(text):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token!r}")
    return json.loads(text, parse_constant=reject)


class TestRunConfig:
    def test_dict_round_trip_preserves_hash(self):
        cell = RunConfig(mode="cluster", workloads="vr-lego:2",
                         rate_hz=4.0, governor="adaptive", slo_fps=30.0,
                         label="a cell")
        back = RunConfig.from_dict(json.loads(json.dumps(cell.to_dict())))
        assert back == cell
        assert back.config_hash() == cell.config_hash()

    def test_label_does_not_affect_hash(self):
        a = RunConfig(rate_hz=4.0, label="one")
        b = RunConfig(rate_hz=4.0, label="two")
        assert a.config_hash() == b.config_hash()

    def test_result_affecting_field_changes_hash(self):
        assert RunConfig(seed=0).config_hash() \
            != RunConfig(seed=1).config_hash()

    def test_rejects_unknown_field(self):
        with pytest.raises(RunConfigError, match="unknown RunConfig field"):
            RunConfig.from_dict({"rate": 4.0})

    def test_serve_rejects_cluster_only_knobs(self):
        with pytest.raises(RunConfigError, match="field workers .* does "
                                                 "not apply to mode serve"):
            RunConfig(mode="serve", workers=4).validate()

    def test_cluster_rejects_serve_only_knobs(self):
        with pytest.raises(RunConfigError, match="field sessions .* does "
                                                 "not apply to mode cluster"):
            RunConfig(mode="cluster", sessions=4).validate()

    def test_replay_requires_trace(self):
        with pytest.raises(RunConfigError,
                           match="--arrival-trace is required"):
            RunConfig(mode="cluster", arrivals="replay").validate()

    def test_autoscale_knobs_require_autoscale(self):
        with pytest.raises(RunConfigError, match="require --autoscale"):
            RunConfig(mode="cluster", min_workers=1).validate()


class TestCliParity:
    """serve/cluster/frontier/experiment share one option declaration: a
    flag foreign to a command is a parse error, and the same field in a
    table cell of that command's mode fails validation."""

    def _args(self, command, *extra):
        from repro.harness.cli import build_parser
        return build_parser().parse_args([command, "--fast", *extra])

    @pytest.mark.parametrize("command", ["cluster", "frontier"])
    def test_serve_only_rejection_is_identical(self, command):
        with pytest.raises(SystemExit):
            self._args(command, "--sessions", "4")
        with pytest.raises(RunConfigError, match="field sessions .* does "
                                                 "not apply to mode cluster"):
            RunConfig(mode=COMMAND_MODES[command], sessions=4).validate()

    @pytest.mark.parametrize("command", ["serve", "cluster", "frontier"])
    def test_bad_frames_rejection_is_identical(self, command):
        with pytest.raises(RunConfigError, match=r"--frames must be >= 1"):
            from_cli_args(command, self._args(command, "--frames", "0"))

    def test_serve_rejects_cluster_flags(self):
        with pytest.raises(SystemExit):
            self._args("serve", "--workers", "2")
        with pytest.raises(RunConfigError, match="field workers .* does "
                                                 "not apply to mode serve"):
            RunConfig(mode="serve", workers=2).validate()


class TestExperimentTable:
    def test_expansion_counts_axes_times_repetitions(self):
        table = ExperimentTable.from_dict(
            {**QUICK_TABLE, "repetitions": 3})
        cells = table.cells()
        assert len(cells) == 2 * 2 * 3
        # Repetition r offsets the effective seed by r via the field.
        assert sorted({c.repetition for c in cells}) == [0, 1, 2]
        assert all(c.seed == 3 for c in cells)
        # Every cell carries its axis assignment.
        assert {(c.placement, c.rate_hz) for c in cells} \
            == {("least_loaded", 5.0), ("least_loaded", 9.0),
                ("cache_affinity", 5.0), ("cache_affinity", 9.0)}

    def test_cell_labels_name_their_assignment(self):
        table = ExperimentTable.from_dict(QUICK_TABLE)
        labels = [c.label for c in table.cells()]
        assert labels[0] == "placement=least_loaded,rate_hz=5.0"
        assert len(set(labels)) == len(labels)

    def test_rejects_unknown_axis(self):
        with pytest.raises(RunConfigError, match="not a sweepable"):
            ExperimentTable.from_dict(
                {"base": {}, "axes": {"bogus": [1, 2]}})

    def test_rejects_invalid_cells_at_expansion(self):
        table = ExperimentTable.from_dict(
            {"base": {"mode": "cluster"}, "axes": {"workers": [1, 0]}})
        with pytest.raises(RunConfigError, match=">= 1"):
            table.cells()

    @pytest.mark.parametrize("name", sorted(PINNED_HASHES))
    def test_example_table_hashes_are_pinned(self, name):
        table = ExperimentTable.from_file(EXAMPLES / name)
        assert [cell.config_hash() for cell in table.cells()] \
            == PINNED_HASHES[name]

    def test_rejects_realserve_cells(self):
        # execute_cell has no live-server path: a realserve cell used to
        # run the cluster simulator under a "realserve" label.
        table = ExperimentTable.from_dict(
            {"base": {"mode": "realserve", "port": 7000}})
        with pytest.raises(RunConfigError, match="'realserve' cannot run"):
            table.cells()
        with pytest.raises(RunConfigError, match="'realserve' cannot run"):
            execute_cell(RunConfig(mode="realserve"), config=FAST)

    def test_cli_experiment_rejects_realserve_table(self, tmp_path, capsys):
        from repro.harness.cli import main
        table = tmp_path / "live.json"
        table.write_text(json.dumps({"base": {
            "mode": "realserve", "scale": "fast", "port": 7000,
            "time_scale": 0.5, "rate_hz": 2.0, "duration_s": 0.5,
            "frames": 1}}))
        out = tmp_path / "out"
        assert main(["experiment", "--table", str(table),
                     "--out", str(out)]) == 2
        assert "realserve" in capsys.readouterr().err
        assert not (out / "BENCH_experiment.json").exists()

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "t.json"
        path.write_text(json.dumps(QUICK_TABLE))
        table = ExperimentTable.from_file(path)
        assert table.name == "quick"
        assert len(table.cells()) == 4


class TestRunTable:
    def _table(self):
        return ExperimentTable.from_dict(QUICK_TABLE)

    def test_one_row_per_cell_with_finite_economics(self, tmp_path):
        rows, extra, path = run_table(self._table(), tmp_path)
        assert len(rows) == 4
        assert extra["executed"] == 4 and extra["resumed"] == 0
        for row in rows:
            for key in ("total_energy_j", "joules_per_frame",
                        "usd_per_frame"):
                assert isinstance(row[key], float)
                assert math.isfinite(row[key])
        # The aggregated artifact is strict JSON; the CSV twin exists
        # with one line per cell plus the header.
        payload = strict_loads(path.read_text())
        assert payload["schema_version"] == 2
        assert payload["kind"] == "experiment"
        assert len(payload["rows"]) == 4
        csv_lines = (tmp_path / "BENCH_experiment.csv") \
            .read_text().strip().splitlines()
        assert len(csv_lines) == 5

    def test_same_seed_reruns_bit_identical(self, tmp_path):
        first, _, _ = run_table(self._table(), tmp_path / "a")
        second, _, _ = run_table(self._table(), tmp_path / "b")
        assert first == second

    def test_resume_skips_matching_cells(self, tmp_path):
        table = self._table()
        baseline, _, _ = run_table(table, tmp_path)
        # Simulate an interrupted run: two cell artifacts missing.
        (tmp_path / "cells" / "BENCH_quick_cell001.json").unlink()
        (tmp_path / "cells" / "BENCH_quick_cell003.json").unlink()
        rows, extra, _ = run_table(table, tmp_path, resume=True)
        assert extra["executed"] == 2 and extra["resumed"] == 2
        assert rows == baseline

    def test_resume_reruns_changed_cells(self, tmp_path):
        run_table(self._table(), tmp_path)
        changed = ExperimentTable.from_dict(
            {**QUICK_TABLE, "base": {**QUICK_TABLE["base"], "seed": 4}})
        rows, extra, _ = run_table(changed, tmp_path, resume=True)
        assert extra["executed"] == 4 and extra["resumed"] == 0
        assert all(row["config_hash"] == cell.config_hash()
                   for row, cell in zip(rows, changed.cells()))

    def test_without_resume_everything_reruns(self, tmp_path):
        run_table(self._table(), tmp_path)
        _, extra, _ = run_table(self._table(), tmp_path)
        assert extra["executed"] == 4 and extra["resumed"] == 0


class TestExecuteCellParity:
    def test_frontier_cell_matches_run_frontier(self):
        from repro.harness.frontier import run_frontier
        rows, _ = run_frontier(FAST, mix="vr-lego:1",
                               rates=(5.0, 6.0, 7.0), duration_s=0.2,
                               frames=1, modes=("off",))
        cell = RunConfig(mode="cluster", workloads="vr-lego:1",
                         arrivals="poisson", rate_hz=6.0, duration_s=0.2,
                         workers=1, queue_limit=2, frames=1,
                         governor="off").validate()
        result = execute_cell(cell, config=FAST)
        assert result.row == rows[1]

    def test_serve_cell_reports_energy(self):
        cell = RunConfig(mode="serve", workloads="vr-lego:2",
                         frames=2).validate()
        result = execute_cell(cell, config=FAST)
        assert result.row["total_energy_j"] > 0.0
        assert math.isfinite(result.row["usd_per_frame"])
        assert result.summary["joules_per_frame"] > 0.0
