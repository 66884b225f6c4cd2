"""Tests for ``python -m repro.report``: every artifact shape it reads,
``--top``, ``--trace-id`` and the exit status on bad input."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.experiments import ExperimentSpec, ScenarioSpec, run_experiment
from repro.report import main
from repro.telemetry import (
    MetricsRegistry,
    SpanRecorder,
    tail_attribution,
    write_metrics,
    write_spans,
)
from repro.wsdb.cluster import ShardRouter, simulate_querystorm
from repro.wsdb.model import generate_metro

pytest.importorskip("numpy")


@pytest.fixture(scope="module")
def storm(tmp_path_factory):
    """A small rate-limited storm's snapshot and span table, written in
    each on-disk shape."""
    metro = generate_metro(range(12), extent_m=2_500.0, seed=11, num_channels=30)
    telemetry, spans = MetricsRegistry(), SpanRecorder()
    simulate_querystorm(
        ShardRouter(metro, num_shards=4),
        6,
        num_clients=20,
        duration_us=30e6,
        seed=11,
        offered_qps=20.0,
        mic_events=2,
        rate_limit_qps=10.0,
        burst_size=12.0,
        engine="vector",
        telemetry=telemetry,
        spans=spans,
    )
    out = tmp_path_factory.mktemp("report")
    snapshot, table = telemetry.snapshot(), spans.snapshot()
    write_metrics(snapshot, json_path=out / "m.json")
    write_spans(table, jsonl_path=out / "s.jsonl")
    (out / "table.json").write_text(json.dumps(table))
    return out, snapshot, table


def run(capsys, *argv):
    status = main([str(a) for a in argv])
    return status, capsys.readouterr().out.splitlines()


def test_metrics_snapshot(storm, capsys):
    out, snapshot, _ = storm
    status, lines = run(capsys, out / "m.json")
    assert status == 0
    assert lines[0] == f"report: {out / 'm.json'}"
    for section in ("counters:", "gauges:", "histograms:"):
        assert section in lines
    ticks = len(snapshot["series"]["t_us"])
    assert f"series ({ticks} ticks):" in lines
    hist = snapshot["histograms"]["frontend_latency_us"]
    assert any(
        line.split()[:2] == ["frontend_latency_us", f"count={hist['count']}"]
        for line in lines
    )
    assert not any(line.startswith("spans:") for line in lines)


def test_span_jsonl_and_raw_table_print_alike(storm, capsys):
    out, _, table = storm
    status, jsonl = run(capsys, out / "s.jsonl")
    assert status == 0
    status, raw = run(capsys, out / "table.json")
    assert status == 0
    assert jsonl[1:] == raw[1:]
    assert jsonl[1] == (
        f"spans: {table['traces']} traces (sample=off, dropped=0, "
        f"unserved={table['unserved']})"
    )
    assert "top 10 slowest traces:" in jsonl
    tail = tail_attribution(table)
    assert any(
        line.startswith("tail attribution (p99, ")
        and line.endswith(
            f"{tail['requests']} requests, {tail['traces']} recorded traces"
        )
        for line in jsonl
    )
    assert any(line.startswith("p99 exemplars (le_") for line in jsonl)


def test_top_limits_the_trace_list(storm, capsys):
    out, _, table = storm
    _, lines = run(capsys, out / "s.jsonl", "--top", 2)
    start = lines.index("top 2 slowest traces:")
    rows = lines[start + 2:start + 4]
    assert all(" request " in row and "request > " in row for row in rows)
    assert lines[start + 4].startswith("tail attribution")
    _, lines = run(capsys, out / "s.jsonl", "--top", 10**6)
    assert f"top {table['traces']} slowest traces:" in lines


def test_trace_id_prints_one_tree(storm, capsys):
    out, _, table = storm
    tid = next(iter(table["exemplars"].values()))[0]
    status, lines = run(capsys, out / "s.jsonl", "--trace-id", tid)
    assert status == 0
    assert lines[1] == f"trace {tid}:"
    assert lines[2].startswith("  request ")
    assert len(lines) - 2 == sum(s["trace"] == tid for s in table["spans"])


def test_unknown_trace_id_exits_1(storm, capsys):
    out, _, _ = storm
    status, lines = run(capsys, out / "s.jsonl", "--trace-id", "f" * 16)
    assert status == 1
    assert "unknown trace" in lines[0]
    # A metrics snapshot has no traces to look up.
    status, _ = run(capsys, out / "m.json", "--trace-id", "f" * 16)
    assert status == 1


@pytest.mark.parametrize(
    "text",
    [
        "",
        "not json\n",
        '{"schema": "repro.spans/v0", "spans": []}',
        '{"counters": {}, "bogus": {}}',
        '{"kind": "roaming", "metrics": [["requeries", 3]]}',
        "[1, 2, 3]",
    ],
)
def test_malformed_input_exits_1(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    status, lines = run(capsys, path)
    assert status == 1
    assert lines[0].startswith(f"report: {path}: ")


def test_missing_file_exits_1(tmp_path, capsys):
    status, _ = run(capsys, tmp_path / "absent.json")
    assert status == 1


def test_experiment_result(tmp_path, capsys):
    spec = ExperimentSpec(
        scenario=ScenarioSpec(
            free_indices=(1, 3, 5),
            num_channels=12,
            duration_us=20_000_000.0,
            seed=5,
        ),
        kind="roaming",
        citywide_aps=6,
        citywide_extent_km=2.0,
        roaming_clients=20,
        citywide_mic_events=2,
        telemetry="on",
        spans="on",
    )
    result = run_experiment(spec)
    path = tmp_path / "result.json"
    path.write_text(result.to_json())
    status, lines = run(capsys, path)
    assert status == 0
    metrics = dict(result.metrics)
    counters = dict(dict(metrics["telemetry"])["counters"])
    assert f"  {'requeries':<44} {counters['requeries']}" in lines
    traces = dict(metrics["spans"])["traces"]
    assert any(line.startswith(f"spans: {traces} traces") for line in lines)
    # Both sections, metrics first.
    assert lines.index("counters:") < lines.index("top 10 slowest traces:")
    # Every roaming lookup is a served request, so the tail attribution
    # has evidence: all of them, at zero latency, each with its trace
    # (unsampled; the mic registrations' trees are not requests).
    lookups = counters["requeries"]
    assert lookups > 0
    assert (
        f"tail attribution (p99, bucket le<=0us): {lookups} requests, "
        f"{lookups} recorded traces"
    ) in lines


def test_runs_as_a_module(storm):
    out, _, _ = storm
    src = pathlib.Path(repro.__file__).parents[1]
    proc = subprocess.run(
        [sys.executable, "-m", "repro.report", str(out / "s.jsonl"), "--top", "1"],
        capture_output=True,
        text=True,
        check=False,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0
    assert "top 1 slowest traces:" in proc.stdout.splitlines()
