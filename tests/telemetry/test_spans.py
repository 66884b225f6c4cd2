"""Unit tests for the sim-clock span recorder and its analysis helpers.

Covers the recorder lifecycle (frontend bursts with shed defers and
retries, zero-duration trees), deterministic trace ids and their
scalar/array agreement, sampling modes, exemplar links, snapshot
ordering, the critical-path / self-time invariant, tail attribution,
and the two span exporters' round-trip properties.
"""

import json
import math
import random

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.telemetry import (
    SpanRecorder,
    critical_path,
    lookup_steps,
    parse_span_sample,
    path_self_times,
    spans_to_chrome,
    spans_to_jsonl,
    tail_attribution,
    trace_spans,
)
from repro.telemetry.spans import (
    EXEMPLARS_PER_BUCKET,
    SPANS_SCHEMA,
    _trace_id,
    _trace_ids,
    bucket_label,
)

BOUNDS = (100.0, 1_000.0, 10_000.0)

MISS_STEPS = [
    ("admission", "frontend", {}, ()),
    lookup_steps(False, 12, "shard0", shard=True),
]


def burst(rec, req, subjects, enqueue, t_us, admitted, served, steps=()):
    """One frontend burst, every served request with the same *steps*."""
    rec.requests(
        req,
        np.asarray(subjects, dtype=np.int64),
        enqueue,
        t_us,
        admitted,
        np.asarray(served, dtype=bool),
        lambda i: steps,
    )


def one_tree(rec, kind, req, subject, t_us, site, steps):
    """One zero-duration tree through ``trees``; returns its trace id."""
    rec.trees(kind, req, [subject], t_us, site, lambda _: steps)
    return _trace_id(req, subject, t_us)


def serve_one(rec, subject=7, enqueue=1_000.0, serve=3_500.0, defers=()):
    """One full request lifecycle with a shard cache-miss serve.

    The request is shed and refused once at each *defers* stamp, then
    admitted and served at *serve*; returns its trace id.
    """
    for t in defers:
        burst(rec, "storm", [subject], [enqueue], t, 0, [False])
    burst(rec, "storm", [subject], [enqueue], serve, 1, [True], MISS_STEPS)
    return _trace_id("storm", subject, enqueue)


class TestTraceIds:
    def test_content_derived(self):
        assert _trace_id("storm", 7, 100.0) == _trace_id("storm", 7, 100.0)
        assert _trace_id("storm", 7, 100.0) != _trace_id("storm", 8, 100.0)
        assert _trace_id("storm", 7, 100.0) != _trace_id("storm", 7, 200.0)
        assert _trace_id("storm", 7, 100.0) != _trace_id("recheck", 7, 100.0)
        assert len(_trace_id("storm", 7, 100.0)) == 16

    def test_scalar_and_array_ids_agree(self):
        # The Python-int mix (one-shot trees) and the uint64 array mix
        # (bursts) are one function of (kind, subject, stamp bits).
        rng = random.Random(2009)
        subjects = [0, 1, 2**62 - 1, 2**62, 2**62 + 1, 2**63 - 1]
        subjects += [rng.randrange(2**63) for _ in range(200)]
        stamps = [0.0, 0.5, 1e15, 1e15 + 0.125, 123_456.789, 5e-324]
        stamps += [rng.uniform(0.0, 1e9) for _ in range(200)]
        stamps += [float(rng.randrange(10**9)) for _ in range(200)]
        for req in ("storm", "recheck", "roam", "mic", ""):
            subj = [subjects[i % len(subjects)] for i in range(len(stamps))]
            arr = _trace_ids(
                req, np.array(subj, dtype=np.int64), np.array(stamps)
            )
            assert arr.dtype == np.uint64
            assert [f"{tid:016x}" for tid in arr.tolist()] == [
                _trace_id(req, s, t) for s, t in zip(subj, stamps)
            ]

    def test_int_and_float_stamps_share_an_id(self):
        assert _trace_id("recheck", 3, 5_000_000) == _trace_id(
            "recheck", 3, 5_000_000.0
        )

    def test_two_recorders_mint_identical_ids(self):
        a, b = SpanRecorder(), SpanRecorder()
        assert serve_one(a) == serve_one(b)

    def test_defer_retry_lands_in_same_trace(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        burst(rec, "recheck", [3], [500.0], 500.0, 0, [False])
        assert rec.snapshot()["unserved"] == 1
        # The retry carries its first-attempt enqueue stamp.
        burst(rec, "recheck", [3], [500.0], 900.0, 1, [True])
        tid = _trace_id("recheck", 3, 500.0)
        spans = trace_spans(rec.snapshot(), tid)
        defers = [s for s in spans if s["kind"] == "shed_defer"]
        assert [s["t0_us"] for s in defers] == [500.0]
        assert rec.snapshot()["unserved"] == 0

    def test_shed_retry_serve_across_bursts_keeps_its_defers(self):
        # Shed and refused in one burst, shed again and served from the
        # stale store in the next: one trace with both attempts.
        rec = SpanRecorder(latency_bounds=BOUNDS)
        burst(rec, "recheck", [1, 3], [0.0, 0.0], 0.0, 1, [True, False])
        burst(
            rec, "recheck", [3, 4], [0.0, 1_000.0], 1_000.0, 0,
            [True, False], [("stale_serve", "frontend", {}, ())],
        )
        table = rec.snapshot()
        spans = trace_spans(table, _trace_id("recheck", 3, 0.0))
        assert [s["kind"] for s in spans] == [
            "request", "queue_wait", "shed_defer", "shed_defer",
            "stale_serve",
        ]
        assert [s["t0_us"] for s in spans if s["kind"] == "shed_defer"] == [
            0.0, 1_000.0,
        ]
        assert spans[0]["attrs"]["latency_us"] == 1_000.0
        # Subject 4 was refused and stays open.
        assert table["unserved"] == 1 and table["traces"] == 2


class TestRecorderLifecycle:
    def test_serve_builds_the_documented_tree(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        tid = serve_one(rec, defers=(1_000.0, 2_000.0))
        spans = trace_spans(rec.snapshot(), tid)
        kinds = [s["kind"] for s in spans]
        assert kinds == [
            "request",
            "queue_wait",
            "shed_defer",
            "shed_defer",
            "admission",
            "shard_lookup",
            "db_lookup",
            "cache_miss",
            "index_scan",
        ]
        root = spans[0]
        assert root["parent"] is None
        assert root["attrs"] == {
            "req": "storm",
            "subject": 7,
            "latency_us": 2_500.0,
        }
        assert (root["t0_us"], root["t1_us"]) == (1_000.0, 3_500.0)
        # Parents reference earlier span ids (preorder).
        for span in spans[1:]:
            assert span["parent"] < span["span"]
        scan = spans[-1]
        assert scan["attrs"] == {"candidates": 12}

    def test_unserved_requests_are_counted_not_exported(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        burst(rec, "storm", [1], [0.0], 0.0, 0, [False])
        table = rec.snapshot()
        assert table["unserved"] == 1
        assert table["traces"] == 0
        assert table["spans"] == []

    def test_serve_without_begin_is_a_noop(self):
        # A request that is neither served nor shed records nothing.
        rec = SpanRecorder(latency_bounds=BOUNDS)
        burst(rec, "storm", [1], [0.0], 10.0, 1, [False])
        table = rec.snapshot()
        assert table["traces"] == 0 and table["unserved"] == 0
        assert sum(table["latency_counts"]) == 0

    def test_record_tree_zero_duration(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        tid = one_tree(
            rec,
            "mic_register",
            "mic",
            0,
            4_000.0,
            "frontend",
            [
                ("invalidate", "frontend", {"entries": 3}, ()),
                ("push_fanout", "push", {"notified": 5}, ()),
            ],
        )
        spans = trace_spans(rec.snapshot(), tid)
        assert [s["kind"] for s in spans] == [
            "mic_register",
            "invalidate",
            "push_fanout",
        ]
        assert all(s["t0_us"] == s["t1_us"] == 4_000.0 for s in spans)
        # Zero-duration trees never enter the request latency counts.
        assert sum(rec.snapshot()["latency_counts"]) == 0

    def test_served_trees_count_as_zero_latency_requests(self):
        # Direct database lookups (the roaming path) are requests served
        # on the spot: all of them count, kept or not, in the first
        # bucket, and each kept root carries its latency and an exemplar.
        rec = SpanRecorder(sample="head-2", latency_bounds=BOUNDS)
        subjects = list(range(10))
        rec.trees(
            "request", "roam", subjects, 2_000.0, "db",
            lambda _: [lookup_steps(True, 0, "db")], served=True,
        )
        table = rec.snapshot()
        assert table["latency_counts"] == [10, 0, 0, 0]
        assert 0 < table["traces"] < 10
        assert table["traces"] + table["dropped"] == 10
        roots = [s for s in table["spans"] if s["parent"] is None]
        assert all(r["attrs"]["latency_us"] == 0.0 for r in roots)
        kept = {r["trace"] for r in roots}
        in_order = [_trace_id("roam", s, 2_000.0) for s in subjects]
        assert table["exemplars"] == {
            "le_100": [t for t in in_order if t in kept][:EXEMPLARS_PER_BUCKET]
        }
        tail = tail_attribution(table)
        assert tail["requests"] == 10 and tail["traces"] == table["traces"]

    def test_snapshot_orders_by_start_then_trace_id(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        late = serve_one(rec, subject=1, enqueue=5_000.0, serve=5_100.0)
        early = serve_one(rec, subject=2, enqueue=100.0, serve=200.0)
        table = rec.snapshot()
        roots = [s for s in table["spans"] if s["parent"] is None]
        assert [r["trace"] for r in roots] == [early, late]
        assert table["schema"] == SPANS_SCHEMA


class TestSampling:
    def test_parse_modes(self):
        assert parse_span_sample(None) == ("off",)
        assert parse_span_sample("off") == ("off",)
        assert parse_span_sample("tail") == ("tail",)
        assert parse_span_sample("head-4") == ("head", 4)

    @pytest.mark.parametrize(
        "bad", ["head-0", "head-x", "head-", "maybe", "tail-2"]
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(SimulationError, match="span_sample"):
            parse_span_sample(bad)

    def test_head_sampling_is_deterministic_and_counts_everything(self):
        n = 3
        kept_ids = []
        rec = SpanRecorder(sample=f"head-{n}", latency_bounds=BOUNDS)
        for subject in range(30):
            tid = serve_one(rec, subject=subject)
            if int(tid[:8], 16) % n == 0:
                kept_ids.append(tid)
        assert 0 < len(kept_ids) < 30
        table = rec.snapshot()
        assert table["traces"] == len(kept_ids)
        assert table["dropped"] == 30 - len(kept_ids)
        # Latency counts are sampling-immune: all 30 serves counted.
        assert sum(table["latency_counts"]) == 30
        exported = {s["trace"] for s in table["spans"]}
        assert exported == set(kept_ids)

    @pytest.mark.parametrize("n", [4, 100])
    def test_head_keep_fraction_is_binomial(self, n):
        # 100k distinct identities in one burst: the kept count sits
        # inside 5 sigma of Binomial(100k, 1/n).
        total = 100_000
        rng = np.random.default_rng(n)
        stamps = rng.integers(0, 10**9, total).astype(np.float64)
        rec = SpanRecorder(sample=f"head-{n}", latency_bounds=BOUNDS)
        burst(
            rec, "storm", np.arange(total), stamps, 2e9, total,
            np.ones(total, dtype=bool),
        )
        table = rec.snapshot()
        assert table["traces"] + table["dropped"] == total
        p = 1.0 / n
        sigma = math.sqrt(total * p * (1.0 - p))
        assert abs(table["traces"] - total * p) < 5.0 * sigma

    def test_dropped_trees_are_counted_not_built(self):
        rec = SpanRecorder(sample="head-4", latency_bounds=BOUNDS)
        built = []

        def steps_of(i):
            built.append(i)
            return [("cache_hit", "db", {}, ())]

        rec.trees("request", "roam", np.arange(400), 1e6, "db", steps_of)
        table = rec.snapshot()
        assert len(built) == table["traces"]
        assert table["traces"] + table["dropped"] == 400
        roots = [s for s in table["spans"] if s["parent"] is None]
        assert sorted(r["attrs"]["subject"] for r in roots) == built
        assert all(type(r["attrs"]["subject"]) is int for r in roots)
        assert {r["trace"] for r in roots} == {
            _trace_id("roam", i, 1e6) for i in built
        }

    def test_tail_sampling_keeps_only_slow_traces(self):
        rec = SpanRecorder(sample="tail", latency_bounds=BOUNDS)
        instant = serve_one(rec, subject=1, enqueue=100.0, serve=100.0)
        slow = serve_one(rec, subject=2, enqueue=100.0, serve=900.0)
        table = rec.snapshot()
        assert trace_spans(table, instant) == []
        assert trace_spans(table, slow) != []
        assert table["dropped"] == 1
        assert sum(table["latency_counts"]) == 2


class TestExemplars:
    def test_bucket_labels(self):
        assert bucket_label(BOUNDS, 0) == "le_100"
        assert bucket_label(BOUNDS, 2) == "le_10000"
        assert bucket_label(BOUNDS, 3) == "le_inf"

    def test_first_n_distinct_per_bucket(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        ids = [
            serve_one(rec, subject=s, enqueue=0.0, serve=50.0)
            for s in range(EXEMPLARS_PER_BUCKET + 3)
        ]
        table = rec.snapshot()
        assert table["exemplars"] == {
            "le_100": ids[:EXEMPLARS_PER_BUCKET]
        }

    def test_one_burst_links_exemplars_in_request_order(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        subjects = [9, 2, 7, 5, 1, 8]
        burst(
            rec, "storm", subjects, [0.0] * 6, 50.0, 6, [True] * 6,
            MISS_STEPS,
        )
        assert rec.snapshot()["exemplars"] == {
            "le_100": [_trace_id("storm", s, 0.0) for s in subjects[:4]]
        }

    def test_every_exemplar_resolves(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        for s in range(6):
            serve_one(rec, subject=s, enqueue=0.0, serve=float(s) * 400.0)
        table = rec.snapshot()
        assert table["exemplars"]
        for ids in table["exemplars"].values():
            for tid in ids:
                assert trace_spans(table, tid)


class TestAnalysis:
    def test_critical_path_follows_longest_child(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        tid = serve_one(rec, defers=(1_500.0,))
        spans = trace_spans(rec.snapshot(), tid)
        path = critical_path(spans)
        # queue_wait spans the whole window; the serve-side steps are
        # zero-duration, so the wait wins at the root.
        assert [s["kind"] for s in path][:2] == ["request", "queue_wait"]

    def test_critical_path_tie_breaks_to_lowest_span_id(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        tid = one_tree(
            rec,
            "request",
            "roam",
            1,
            100.0,
            "db",
            [("a", "db", {}, ()), ("b", "db", {}, ())],
        )
        path = critical_path(trace_spans(rec.snapshot(), tid))
        assert [s["kind"] for s in path] == ["request", "a"]

    def test_self_times_sum_to_root_duration(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        tid = serve_one(rec, enqueue=1_000.0, serve=9_999.0, defers=(2_000.0,))
        spans = trace_spans(rec.snapshot(), tid)
        path = critical_path(spans)
        self_times = path_self_times(path)
        assert sum(t for _, t in self_times) == pytest.approx(
            spans[0]["attrs"]["latency_us"]
        )

    def test_tail_attribution_charges_the_slow_kind(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        for s in range(98):
            serve_one(rec, subject=s, enqueue=0.0, serve=10.0)
        serve_one(rec, subject=998, enqueue=0.0, serve=5_000.0)
        serve_one(rec, subject=999, enqueue=0.0, serve=6_000.0)
        tail = tail_attribution(rec.snapshot())
        assert tail["requests"] == 2
        assert tail["traces"] == 2
        assert tail["threshold_le"] == 10_000.0
        assert tail["by_kind"]["queue_wait"] == 11_000.0

    def test_tail_attribution_empty_table(self):
        tail = tail_attribution(SpanRecorder(latency_bounds=BOUNDS).snapshot())
        assert tail == {
            "quantile": 0.99,
            "threshold_le": None,
            "requests": 0,
            "traces": 0,
            "by_kind": {},
        }


class TestExporters:
    def make_table(self):
        rec = SpanRecorder(latency_bounds=BOUNDS)
        serve_one(rec, subject=1, defers=(1_200.0,))
        serve_one(rec, subject=2, enqueue=4_000.0, serve=4_100.0)
        one_tree(
            rec,
            "mic_register",
            "mic",
            0,
            5_000.0,
            "frontend",
            [("invalidate", "frontend", {"entries": 1}, ())],
        )
        return rec.snapshot()

    def test_jsonl_round_trips_the_table(self):
        table = self.make_table()
        text = spans_to_jsonl(table)
        lines = text.splitlines()
        meta = json.loads(lines[0])
        rebuilt = dict(meta)
        rebuilt["spans"] = [json.loads(line) for line in lines[1:]]
        assert rebuilt == table

    def test_jsonl_is_byte_stable(self):
        assert spans_to_jsonl(self.make_table()) == spans_to_jsonl(
            self.make_table()
        )

    def test_chrome_events_cover_every_span(self):
        table = self.make_table()
        payload = json.loads(spans_to_chrome(table))
        events = payload["traceEvents"]
        assert len(events) == len(table["spans"])
        assert all(e["ph"] == "X" for e in events)
        # One tid lane per trace, numbered in first-appearance order.
        lanes = {}
        for span, event in zip(table["spans"], events):
            lanes.setdefault(span["trace"], event["tid"])
            assert event["tid"] == lanes[span["trace"]]
            assert event["args"]["trace"] == span["trace"]
        assert sorted(lanes.values()) == list(range(1, len(lanes) + 1))
