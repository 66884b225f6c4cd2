"""Tests for the querystorm driver: storm accounting, determinism,
admission starvation, and the push-vs-pull violation window."""

import subprocess
import sys

import pytest

from repro.errors import SimulationError
from repro.sim.rng import stream_seed
from repro.wsdb.cluster import ShardRouter, simulate_querystorm
from repro.wsdb.model import Metro, generate_metro


def dense_router(
    num_shards: int = 4, extent_m: float = 2_500.0, seed: int = 99
) -> ShardRouter:
    metro = generate_metro(
        range(12), extent_m=extent_m, seed=seed, num_channels=30
    )
    return ShardRouter(metro, num_shards=num_shards)


def empty_router(num_shards: int = 4) -> ShardRouter:
    return ShardRouter(
        Metro(extent_m=2_000.0, num_channels=30), num_shards=num_shards
    )


class TestValidation:
    def test_invalid_parameters_raise(self):
        router = empty_router()
        with pytest.raises(SimulationError):
            simulate_querystorm(
                router, 5, num_clients=-1, duration_us=1e6, seed=0
            )
        with pytest.raises(SimulationError):
            simulate_querystorm(
                router, 5, num_clients=3, duration_us=0.0, seed=0
            )
        with pytest.raises(SimulationError):
            simulate_querystorm(
                router, 5, num_clients=3, duration_us=1e6, seed=0,
                offered_qps=-1.0,
            )
        with pytest.raises(SimulationError):
            simulate_querystorm(
                router, 5, num_clients=3, duration_us=1e6, seed=0,
                speed_mps=0.0,
            )
        with pytest.raises(SimulationError):
            simulate_querystorm(
                router, 5, num_clients=3, duration_us=1e6, seed=0,
                recheck_m=-10.0,
            )
        with pytest.raises(SimulationError):
            simulate_querystorm(
                router, 5, num_clients=3, duration_us=1e6, seed=0,
                policy="bogus",
            )


class TestStormAccounting:
    def test_offered_load_is_delivered(self):
        report = simulate_querystorm(
            empty_router(),
            num_aps=5,
            num_clients=0,
            duration_us=60e6,
            seed=3,
            offered_qps=100.0,
        )
        # 100 qps accrued at each of the 61 tick fences of [0, 60 s]
        # (the loop is boundary-inclusive, like the roaming driver's).
        assert report["storm_queries"] == 6_100
        assert report["frontend"]["requests"] == 6_100
        assert report["frontend"]["shed"] == 0
        # Clientless runs score vacuously clean compliance.
        assert report["connected_fraction"] == 0.0
        assert report["violation_free_fraction"] == 1.0

    def test_db_accounting_is_honest(self):
        report = simulate_querystorm(
            dense_router(),
            num_aps=6,
            num_clients=10,
            duration_us=60e6,
            seed=5,
            offered_qps=50.0,
            mic_events=2,
        )
        db = report["db"]
        assert db["cache_hits"] + db["cache_misses"] == db["queries"]
        front = report["frontend"]
        assert front["admitted"] == front["requests"]
        # Per-shard snapshots sum to the aggregate.
        assert sum(s["queries"] for s in report["per_shard"]) == db["queries"]
        assert report["mic_events"] == 2
        assert report["db"]["mic_registrations"] == 2

    def test_deterministic_per_seed_and_shard_invariant(self):
        def run(seed, shards):
            return simulate_querystorm(
                dense_router(num_shards=shards),
                num_aps=6,
                num_clients=8,
                duration_us=60e6,
                seed=seed,
                offered_qps=80.0,
                mic_events=2,
            )

        a, b = run(11, 4), run(11, 4)
        assert a == b
        assert run(12, 4) != a
        # Sharding is a service-tier choice: the physics — mobility,
        # compliance, handoffs — are identical at any shard count.
        one = run(11, 1)
        for key in (
            "requeries",
            "handoffs",
            "vacations",
            "violation_ticks",
            "connected_ticks",
        ):
            assert one[key] == a[key], key


class TestAdmissionStarvation:
    def test_storm_starves_client_rechecks_under_reject(self):
        report = simulate_querystorm(
            dense_router(),
            num_aps=6,
            num_clients=10,
            duration_us=60e6,
            seed=5,
            offered_qps=300.0,
            rate_limit_qps=100.0,
            mic_events=0,
        )
        assert report["frontend"]["shed"] > 0
        assert report["deferred_requeries"] > 0
        assert report["frontend"]["served_stale"] == 0

    def test_serve_stale_relieves_deferrals(self):
        def run(policy):
            return simulate_querystorm(
                dense_router(),
                num_aps=6,
                num_clients=10,
                duration_us=60e6,
                seed=5,
                offered_qps=300.0,
                rate_limit_qps=100.0,
                policy=policy,
            )

        reject, stale = run("reject"), run("serve-stale")
        assert stale["frontend"]["served_stale"] > 0
        assert stale["deferred_requeries"] < reject["deferred_requeries"]


class TestPushVsPull:
    def run(self, push, seed=2009):
        return simulate_querystorm(
            dense_router(seed=seed),
            num_aps=10,
            num_clients=60,
            duration_us=300e6,
            seed=seed,
            offered_qps=100.0,
            push=push,
            mic_events=12,
            speed_mps=6.0,
        )

    @pytest.mark.slow
    def test_push_strictly_shrinks_the_violation_window(self):
        pull, push = self.run(False), self.run(True)
        assert pull["violation_ticks"] > 0
        assert push["violation_ticks"] < pull["violation_ticks"]
        assert push["push_refreshes"] > 0
        assert push["push_stats"]["notifications"] > 0
        # Pull-only runs carry no registry at all.
        assert pull["push_stats"] is None
        assert pull["push_refreshes"] == 0

    def test_pushed_clients_subscribe_cell_granularly(self):
        report = simulate_querystorm(
            dense_router(),
            num_aps=5,
            num_clients=6,
            duration_us=30e6,
            seed=5,
            push=True,
        )
        stats = report["push_stats"]
        assert stats["subscriptions"] == 6
        # Moving clients re-subscribe as they cross cells.
        assert stats["moves"] > 0


class TestSeedStreams:
    def test_driver_streams_do_not_replay_roaming_streams(self):
        # querystorm and roaming label their client streams differently,
        # so the same master seed produces different (but individually
        # deterministic) paths — no accidental cross-driver coupling.
        from repro.wsdb.mobility import simulate_roaming
        from repro.wsdb.service import WhiteSpaceDatabase

        seed = 17
        metro_seed = stream_seed(seed, "shared-metro")
        storm = simulate_querystorm(
            ShardRouter(
                generate_metro(range(12), extent_m=2_500.0, seed=metro_seed),
                num_shards=1,
            ),
            num_aps=5,
            num_clients=4,
            duration_us=30e6,
            seed=seed,
        )
        roam = simulate_roaming(
            WhiteSpaceDatabase(
                generate_metro(range(12), extent_m=2_500.0, seed=metro_seed)
            ),
            num_aps=5,
            num_clients=4,
            duration_us=30e6,
            seed=seed,
        )
        assert storm["requeries"] != roam["requeries"] or (
            storm["handoffs"] != roam["handoffs"]
        )


class TestRequestBursts:
    def run(self, engine, **extra):
        return simulate_querystorm(
            dense_router(),
            num_aps=6,
            num_clients=40,
            duration_us=60e6,
            seed=5,
            offered_qps=50.0,
            mic_events=2,
            engine=engine,
            **extra,
        )

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_at_most_two_frontend_bursts_per_tick(self, engine):
        # The storm burst, then the tick's re-checkers as one burst.
        report = self.run(engine)
        front = report["frontend"]
        assert front["batches"] <= 2 * 61
        assert front["requests"] == (
            report["storm_queries"]
            + report["requeries"]
            + report["deferred_requeries"]
        )

    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_profiler_phases_observe_only(self, engine):
        pytest.importorskip("numpy")
        from repro.telemetry import PhaseProfiler

        profiler = PhaseProfiler()
        assert self.run(engine, profiler=profiler) == self.run(engine)
        # Both engines run the one tick loop, so both time its phases.
        assert set(profiler.seconds()) == {
            "advance",
            "associate",
            "batch-lookup",
            "boot",
            "compliance",
            "frontend",
            "recheck-detect",
            "spawn",
            "storm-gen",
        }


def test_session_and_cluster_imports_leave_numpy_random_unloaded():
    # Importing numpy.random costs about 2.5 MB of resident memory, which
    # every storm session would carry; the storm draws come from the
    # stdlib Random instead.
    probe = (
        "import sys\n"
        "import repro.wsdb.session, repro.wsdb.cluster\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "[]"
