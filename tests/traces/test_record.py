"""Tests for the trace schema, recorder, and deterministic writer."""

import gzip
import json

import pytest

from repro.errors import SimulationError
from repro.traces.record import (
    EVENT_KINDS,
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    TraceRecorder,
    read_trace,
    write_trace,
)


def sample_events() -> list[TraceEvent]:
    return [
        TraceEvent(t_us=0.0, kind="mic", subject=0, cell=(3, 4),
                   channels=(21,), aux=21),
        TraceEvent(t_us=1_000_000.0, kind="query", subject=0, cell=(1, 2),
                   channels=(4, 5, 6), x=123.456, y=789.0125, aux=1),
        TraceEvent(t_us=1_000_000.0, kind="recheck", subject=7,
                   cell=(1, 2), channels=None, aux=0),
        TraceEvent(t_us=2_000_000.0, kind="handoff", subject=7, cell=(5, 5),
                   channels=(8, 9), aux=3),
        TraceEvent(t_us=2_000_000.0, kind="violation_open", subject=7,
                   channels=(8, 9)),
        TraceEvent(t_us=3_000_000.0, kind="violation_close", subject=7,
                   aux=0),
        TraceEvent(t_us=0.0, kind="push", subject=4, cell=(3, 4), aux=0),
    ]


class TestEvent:
    def test_to_dict_omits_none_fields(self):
        record = TraceEvent(t_us=5.0, kind="query", subject=1).to_dict()
        assert record == {"t_us": 5.0, "kind": "query", "subject": 1}

    def test_dict_roundtrip(self):
        for event in sample_events():
            assert TraceEvent.from_dict(event.to_dict()) == event

    def test_from_dict_survives_json(self):
        for event in sample_events():
            blob = json.dumps(event.to_dict())
            assert TraceEvent.from_dict(json.loads(blob)) == event

    def test_sort_key_orders_kinds_within_timestamp(self):
        ranks = [
            TraceEvent(t_us=1.0, kind=kind).sort_key()[1]
            for kind in EVENT_KINDS
        ]
        assert ranks == sorted(ranks)


class TestWriterReader:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.jsonl.gz"
        events = sorted(sample_events(), key=TraceEvent.sort_key)
        write_trace(path, events, meta={"label": "unit"})
        header, restored = read_trace(path)
        assert header["schema"] == TRACE_SCHEMA
        assert header["version"] == TRACE_SCHEMA_VERSION
        assert header["events"] == len(events)
        assert header["meta"] == {"label": "unit"}
        assert restored == events

    def test_identical_streams_identical_bytes(self, tmp_path):
        events = sorted(sample_events(), key=TraceEvent.sort_key)
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "basename-differs.jsonl.gz"
        write_trace(a, events, meta={"k": 1})
        write_trace(b, events, meta={"k": 1})
        assert a.read_bytes() == b.read_bytes()

    def test_plain_jsonl_accepted(self, tmp_path):
        gz = tmp_path / "run.jsonl.gz"
        events = sorted(sample_events(), key=TraceEvent.sort_key)
        write_trace(gz, events)
        plain = tmp_path / "run.jsonl"
        plain.write_bytes(gzip.decompress(gz.read_bytes()))
        header, restored = read_trace(plain)
        assert header["events"] == len(events)
        assert restored == events

    def test_missing_and_empty_files_raise(self, tmp_path):
        with pytest.raises(SimulationError, match="no trace file"):
            read_trace(tmp_path / "absent.jsonl.gz")
        empty = tmp_path / "empty.jsonl"
        empty.write_bytes(b"")
        with pytest.raises(SimulationError, match="empty trace"):
            read_trace(empty)

    def test_foreign_schema_and_version_raise(self, tmp_path):
        foreign = tmp_path / "foreign.jsonl"
        foreign.write_text(json.dumps({"schema": "other/v9"}) + "\n")
        with pytest.raises(SimulationError, match="not a repro.traces"):
            read_trace(foreign)
        newer = tmp_path / "newer.jsonl"
        newer.write_text(
            json.dumps({"schema": TRACE_SCHEMA, "version": 99}) + "\n"
        )
        with pytest.raises(SimulationError, match="version"):
            read_trace(newer)


class TestRecorder:
    def test_sorts_into_canonical_order(self, tmp_path):
        recorder = TraceRecorder(tmp_path / "run.jsonl.gz")
        # Emit deliberately out of order: later tick first, then two
        # same-tick events in reverse kind rank, then reverse subject.
        recorder.emit("query", t_us=2e6, subject=0, x=1.0, y=2.0, aux=1)
        recorder.emit("recheck", t_us=1e6, subject=3, cell=(0, 0), aux=1)
        recorder.emit("mic", t_us=1e6, subject=0, cell=(0, 0), channels=(7,))
        recorder.emit("recheck", t_us=1e6, subject=1, cell=(0, 0), aux=1)
        keys = [e.sort_key() for e in recorder.sorted_events()]
        assert keys == sorted(keys)

    def test_normalizes_value_types(self, tmp_path):
        np = pytest.importorskip("numpy")
        recorder = TraceRecorder(tmp_path / "run.jsonl.gz")
        recorder.emit(
            "handoff",
            t_us=np.float64(5.0),
            subject=np.int64(2),
            cell=(np.int64(1), np.int64(2)),
            channels=np.array([3, 4]),
            aux=np.int32(9),
        )
        [event] = recorder.sorted_events()
        assert type(event.t_us) is float
        assert type(event.subject) is int
        assert event.cell == (1, 2) and all(
            type(v) is int for v in event.cell
        )
        assert event.channels == (3, 4)
        assert type(event.aux) is int

    def test_unknown_kind_raises(self, tmp_path):
        recorder = TraceRecorder(tmp_path / "run.jsonl.gz")
        with pytest.raises(SimulationError, match="unknown trace event"):
            recorder.emit("teleport", t_us=0.0)

    def test_close_idempotent_and_context_manager(self, tmp_path):
        path = tmp_path / "run.jsonl.gz"
        with TraceRecorder(path, meta={"n": 1}) as recorder:
            recorder.emit("mic", t_us=0.0, subject=0, channels=(4,))
        first = path.read_bytes()
        recorder.close()  # idempotent: does not rewrite
        assert path.read_bytes() == first
        header, events = read_trace(path)
        assert header["meta"] == {"n": 1} and len(events) == 1
