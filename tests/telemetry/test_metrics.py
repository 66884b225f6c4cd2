"""Unit tests for the sim-clock metrics registry."""

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.telemetry import (
    DEFAULT_BATCH_BOUNDS,
    DEFAULT_LATENCY_BOUNDS_US,
    Histogram,
    MetricsRegistry,
    TELEMETRY_MODES,
    histogram_quantile,
    merge_snapshots,
    metric_key,
)


class TestMetricKey:
    def test_bare_name(self):
        assert metric_key("wsdb_queries", {}) == "wsdb_queries"

    def test_labels_render_sorted(self):
        key = metric_key("wsdb_queries", {"shard": 3, "az": "x"})
        assert key == 'wsdb_queries{az="x",shard="3"}'

    def test_label_order_is_canonical(self):
        assert metric_key("m", {"a": 1, "b": 2}) == metric_key(
            "m", {"b": 2, "a": 1}
        )

    @pytest.mark.parametrize("bad", ["", "1starts_with_digit", "has space", "a-b"])
    def test_invalid_names_rejected(self, bad):
        with pytest.raises(SimulationError):
            metric_key(bad, {})


class TestFamilies:
    def test_counter_accumulates_and_rejects_negative(self):
        reg = MetricsRegistry()
        reg.counter("hits").inc()
        reg.counter("hits").inc(4)
        assert reg.snapshot()["counters"]["hits"] == 5
        with pytest.raises(SimulationError):
            reg.counter("hits").inc(-1)

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        reg.gauge("depth").set(3.0)
        reg.gauge("depth").set(1.5)
        assert reg.snapshot()["gauges"]["depth"] == 1.5

    def test_labeled_series_are_distinct(self):
        reg = MetricsRegistry()
        reg.counter("q", shard=0).inc(2)
        reg.counter("q", shard=1).inc(3)
        reg.counter("q").inc(5)
        counters = reg.snapshot()["counters"]
        assert counters == {'q': 5, 'q{shard="0"}': 2, 'q{shard="1"}': 3}

    def test_histogram_bucket_edges_are_inclusive(self):
        h = Histogram((10.0, 20.0))
        for v in (0.0, 10.0, 10.1, 20.0, 21.0):
            h.observe(v)
        # le=10 catches 0.0 and 10.0; le=20 catches 10.1 and 20.0;
        # overflow catches 21.0.
        assert h.counts == [2, 2, 1]
        assert h.count == 5
        assert h.sum == pytest.approx(61.1)

    def test_observe_many_matches_the_observe_loop(self):
        # Bucket edges, an empty call, and a sum whose bits depend on
        # left-to-right addition (pairwise summation would differ).
        rng = np.random.default_rng(18)
        values = np.concatenate(
            (
                [0.0, 1_000.0, 1_000.0000001, 300_000_000.0, 4e8],
                rng.uniform(0.0, 1e7, 3_000),
                rng.choice(DEFAULT_LATENCY_BOUNDS_US, 200),
            )
        )
        one, many = Histogram(), Histogram()
        one.observe(0.1)
        many.observe(0.1)
        for v in values.tolist():
            one.observe(v)
        many.observe_many(values[:1_000])
        many.observe_many(values[:0])
        many.observe_many(values[1_000:])
        assert many.counts == one.counts
        assert all(type(c) is int for c in many.counts)
        assert many.count == one.count
        assert type(many.sum) is float and many.sum.hex() == one.sum.hex()

    def test_histogram_bounds_must_increase(self):
        with pytest.raises(SimulationError):
            Histogram((1.0, 1.0))
        with pytest.raises(SimulationError):
            Histogram((2.0, 1.0))
        with pytest.raises(SimulationError):
            Histogram(())

    def test_histogram_redeclare_same_bounds_ok_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("lat", DEFAULT_LATENCY_BOUNDS_US).observe(1.0)
        # Re-fetch without bounds, and with identical bounds: fine.
        assert reg.histogram("lat").count == 1
        assert reg.histogram("lat", DEFAULT_LATENCY_BOUNDS_US).count == 1
        with pytest.raises(SimulationError):
            reg.histogram("lat", DEFAULT_BATCH_BOUNDS)


class TestQuantile:
    def test_empty_histogram_reports_zero(self):
        snap = Histogram((1.0, 2.0))
        data = {"bounds": snap.bounds, "counts": snap.counts, "count": 0}
        assert histogram_quantile(data, 0.5) == 0.0

    def test_quantiles_walk_cumulative_counts(self):
        h = Histogram((1.0, 2.0, 4.0))
        for v in [0.5] * 50 + [1.5] * 40 + [3.0] * 9 + [100.0]:
            h.observe(v)
        data = {"bounds": h.bounds, "counts": h.counts, "count": h.count}
        assert histogram_quantile(data, 0.5) == 1.0
        assert histogram_quantile(data, 0.9) == 2.0
        assert histogram_quantile(data, 0.99) == 4.0
        assert histogram_quantile(data, 1.0) == float("inf")

    def test_out_of_range_q_rejected(self):
        data = {"bounds": (1.0,), "counts": [0, 0], "count": 0}
        with pytest.raises(SimulationError):
            histogram_quantile(data, -0.1)
        with pytest.raises(SimulationError):
            histogram_quantile(data, 1.1)


class TestRecordStats:
    def test_ints_become_counters_floats_become_gauges(self):
        reg = MetricsRegistry()
        reg.record_stats(
            "wsdb",
            {"queries": 7, "hit_rate": 0.5, "name": "ignored", "flag": True},
        )
        snap = reg.snapshot()
        assert snap["counters"] == {"wsdb_queries": 7, "wsdb_flag": 1}
        assert snap["gauges"] == {"wsdb_hit_rate": 0.5}


class TestSampleTick:
    def test_columns_fixed_by_first_call(self):
        reg = MetricsRegistry()
        reg.sample_tick(0.0, a=1, b=2)
        reg.sample_tick(10.0, b=4, a=3)  # kwarg order is irrelevant
        snap = reg.snapshot()["series"]
        assert snap == {"t_us": [0.0, 10.0], "a": [1.0, 3.0], "b": [2.0, 4.0]}

    def test_column_drift_rejected(self):
        reg = MetricsRegistry()
        reg.sample_tick(0.0, a=1)
        with pytest.raises(SimulationError):
            reg.sample_tick(10.0, a=1, b=2)

    def test_values_coerce_to_float(self):
        numpy = pytest.importorskip("numpy")
        reg = MetricsRegistry()
        reg.sample_tick(0.0, n=numpy.int64(3))
        value = reg.snapshot()["series"]["n"][0]
        assert type(value) is float and value == 3.0


class TestSnapshotShape:
    def test_sections_sorted_and_plain(self):
        import json

        reg = MetricsRegistry()
        reg.counter("b").inc()
        reg.counter("a").inc()
        reg.histogram("h", (1.0,)).observe(0.5)
        reg.sample_tick(0.0, x=1)
        snap = reg.snapshot()
        assert list(snap) == ["counters", "gauges", "histograms", "series"]
        assert list(snap["counters"]) == ["a", "b"]
        json.dumps(snap)  # plain data end to end

    def test_snapshot_is_detached(self):
        reg = MetricsRegistry()
        reg.counter("c").inc()
        snap = reg.snapshot()
        reg.counter("c").inc(10)
        assert snap["counters"]["c"] == 1


class TestMerge:
    def test_counters_sum_gauges_take_max(self):
        a = {"counters": {"q": 2}, "gauges": {"depth": 1.0}}
        b = {"counters": {"q": 3, "r": 1}, "gauges": {"depth": 0.5}}
        merged = merge_snapshots(a, b)
        assert merged["counters"] == {"q": 5, "r": 1}
        assert merged["gauges"] == {"depth": 1.0}

    def test_histograms_merge_bucketwise(self):
        h = {"bounds": [1.0, 2.0], "counts": [1, 0, 2], "sum": 9.0, "count": 3}
        merged = merge_snapshots({"histograms": {"h": h}}, {"histograms": {"h": h}})
        assert merged["histograms"]["h"] == {
            "bounds": [1.0, 2.0],
            "counts": [2, 0, 4],
            "sum": 18.0,
            "count": 6,
        }

    def test_histogram_bounds_mismatch_raises(self):
        a = {"histograms": {"h": {"bounds": [1.0], "counts": [0, 0], "sum": 0.0, "count": 0}}}
        b = {"histograms": {"h": {"bounds": [2.0], "counts": [0, 0], "sum": 0.0, "count": 0}}}
        with pytest.raises(SimulationError):
            merge_snapshots(a, b)

    def test_overlapping_series_raise_but_t_us_is_exempt(self):
        a = {"series": {"t_us": [0.0], "x": [1.0]}}
        b = {"series": {"t_us": [0.0], "y": [2.0]}}
        merged = merge_snapshots(a, b)
        assert set(merged["series"]) == {"t_us", "x", "y"}
        with pytest.raises(SimulationError):
            merge_snapshots(a, a)


class TestNullTelemetry:
    def test_modes_tuple(self):
        assert TELEMETRY_MODES == ("off", "on")
