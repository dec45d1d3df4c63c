"""End-to-end --trace surface: artifacts a viewer/analyzer can load."""

import json

import pytest

from repro.harness.cli import main


def _strict_load(path):
    def reject(token):
        raise AssertionError(f"non-strict JSON constant {token!r}")
    return json.loads(path.read_text(), parse_constant=reject)


@pytest.fixture(scope="module")
def cluster_trace(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("cluster-trace")
    trace = tmp_path / "cluster.trace.json"
    rc = main(["cluster", "--fast", "--arrivals", "deterministic",
               "--rate", "3", "--duration", "2", "--workers", "1",
               "--frames", "3", "--seed", "0",
               "--json-out", str(tmp_path), "--trace", str(trace)])
    assert rc == 0
    return tmp_path, trace


def test_cluster_trace_has_required_spans(cluster_trace):
    _, trace = cluster_trace
    payload = _strict_load(trace)
    events = payload["traceEvents"]
    spans_by_name = {}
    for event in events:
        assert "ph" in event
        if event["ph"] == "X":
            spans_by_name.setdefault(event["name"], []).append(event)
    assert len(spans_by_name.get("engine.round", [])) > 0
    assert len(spans_by_name.get("frame.serve", [])) > 0
    assert len(spans_by_name.get("frame.wait", [])) > 0
    for span in spans_by_name["engine.round"]:
        assert span["dur"] > 0
        assert span["args"]["rays"] >= 0


def test_cluster_trace_lane_metadata_names_workers(cluster_trace):
    _, trace = cluster_trace
    events = _strict_load(trace)["traceEvents"]
    processes = [e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "process_name"]
    assert "cluster" in processes
    assert any(label.startswith("worker") for label in processes)


def test_cluster_artifact_carries_metrics(cluster_trace):
    tmp_path, _ = cluster_trace
    payload = _strict_load(tmp_path / "BENCH_cluster.json")
    metrics = payload["metrics"]
    assert metrics["counters"]["cluster.frames"] > 0
    assert metrics["histograms"]["cluster.frame_latency_s"]["count"] > 0


def test_analyze_runs_on_real_trace(cluster_trace, capsys):
    _, trace = cluster_trace
    assert main(["trace", "analyze", str(trace), "--top", "3"]) == 0
    out = capsys.readouterr().out
    assert "event census" in out
    assert "engine round occupancy" in out


def test_serve_trace_smoke(tmp_path):
    trace = tmp_path / "serve.trace.json"
    rc = main(["serve", "--fast", "--workload", "vr-lego",
               "--frames", "2", "--trace", str(trace)])
    assert rc == 0
    events = _strict_load(trace)["traceEvents"]
    names = {e["name"] for e in events if e.get("ph") == "X"}
    assert "serve.round" in names
    assert "frame.serve" in names


def test_trace_flag_rejected_outside_observed_commands(capsys, tmp_path):
    rc = main(["bench", "--quick", "--trace", str(tmp_path / "t.json")])
    assert rc == 2
    assert "unrecognized arguments: --trace" in capsys.readouterr().err


def test_positional_args_rejected_outside_trace_command(capsys):
    assert main(["serve", "analyze", "--fast"]) == 2
    assert "unrecognized arguments: analyze" in capsys.readouterr().err
