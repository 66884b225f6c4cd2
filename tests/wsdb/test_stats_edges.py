"""Zero-denominator pinning: every stats ratio reports cleanly at zero.

The wsdb stack exposes ratio properties (``hit_rate``, ``shed_rate``,
``candidates_per_query``) and report fractions
(``connected_fraction``, ``violation_free_fraction``) whose
denominators are all zero on a fleet that never queried.  These tests
pin the convention — a zero denominator reports 0.0 (or the vacuous
1.0 for violation-free), never raises — across the service, router,
frontend, and both run drivers, including the degenerate 0-client
querystorm.
"""

import pytest

from repro.wsdb.cluster.frontend import BatchFrontend, FrontendStats
from repro.wsdb.cluster.push import PushRegistry, PushStats
from repro.wsdb.cluster.querystorm import simulate_querystorm
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.mobility import ENGINES
from repro.wsdb.model import generate_metro
from repro.wsdb.service import WhiteSpaceDatabase, WsdbStats
from repro.telemetry import MetricsRegistry


def fresh_metro(seed: int = 7):
    return generate_metro(range(0, 10), seed=seed, extent_m=2_000.0)


class TestZeroDenominators:
    def test_wsdb_stats_zero_state(self):
        stats = WsdbStats()
        assert stats.hit_rate == 0.0
        snap = stats.as_dict()
        assert snap["hit_rate"] == 0.0
        assert snap["queries"] == 0

    def test_frontend_stats_zero_state(self):
        stats = FrontendStats()
        assert stats.shed_rate == 0.0
        assert stats.as_dict()["shed_rate"] == 0.0

    def test_push_stats_zero_state(self):
        assert all(v == 0 for v in PushStats().as_dict().values())

    def test_untouched_database_reports_cleanly(self):
        db = WhiteSpaceDatabase(fresh_metro())
        snap = db.stats.as_dict()
        assert snap["hit_rate"] == 0.0 and snap["queries"] == 0

    def test_untouched_router_reports_cleanly(self):
        router = ShardRouter(fresh_metro(), num_shards=4)
        assert router.candidates_per_query() == 0.0
        snap = router.stats_dict()
        assert snap["candidates_per_query"] == 0.0
        assert snap["hit_rate"] == 0.0
        for shard in router.per_shard_stats():
            assert shard["hit_rate"] == 0.0

    def test_untouched_frontend_reports_cleanly(self):
        frontend = BatchFrontend(ShardRouter(fresh_metro(), num_shards=4))
        assert frontend.stats.shed_rate == 0.0
        assert frontend.query_batch([], 0.0).tolist() == []
        assert frontend.stats.as_dict()["shed_rate"] == 0.0


class TestZeroClientFleet:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_querystorm_with_no_clients_and_no_storm(self, engine):
        if engine == "vector":
            pytest.importorskip("numpy")
        report = simulate_querystorm(
            ShardRouter(fresh_metro(), num_shards=4),
            num_aps=5,
            num_clients=0,
            duration_us=2_000_000,
            tick_us=100_000,
            seed=7,
            offered_qps=0.0,
            engine=engine,
        )
        assert report["storm_queries"] == 0
        assert report["requeries"] == 0
        # Zero client-ticks: the connected fraction is 0, and the
        # violation-free fraction is the vacuous 1.0, not a crash.
        assert report["connected_fraction"] == 0.0
        assert report["violation_free_fraction"] == 1.0
        assert report["frontend"]["shed_rate"] == 0.0
        # The APs themselves query at boot (cold cache, all misses),
        # so hit_rate's numerator is 0 with a nonzero denominator.
        assert report["db"]["hit_rate"] == 0.0

    @pytest.mark.parametrize("engine", ENGINES)
    def test_zero_fleet_telemetry_snapshot_is_clean(self, engine):
        if engine == "vector":
            pytest.importorskip("numpy")
        report = simulate_querystorm(
            ShardRouter(fresh_metro(), num_shards=4),
            num_aps=5,
            num_clients=0,
            duration_us=2_000_000,
            tick_us=100_000,
            seed=7,
            offered_qps=0.0,
            engine=engine,
            telemetry=MetricsRegistry(),
        )
        snap = report["telemetry"]
        assert snap["gauges"]["wsdb_hit_rate"] == 0.0
        assert snap["gauges"]["frontend_shed_rate"] == 0.0
        # A zero fleet still samples every tick fence.  The cumulative
        # query count stays pinned at the 5 AP boot queries.
        assert len(snap["series"]["t_us"]) == 21
        assert set(snap["series"]["queries"]) == {5.0}
        assert set(snap["series"]["cache_hits"]) == {0.0}

    def test_push_registry_len_without_subscribers(self):
        registry = PushRegistry(100.0)
        assert len(registry) == 0
        assert registry.stats.as_dict()["notifications"] == 0
