"""Tests for the columnar vector engine: bit-identical to the scalar
per-client loop — full-report equality, nested db/frontend/push stats
included — across seeds, fleet sizes, speeds, and cluster policies."""

import pytest

from repro.errors import SimulationError
from repro.spectrum.channels import WhiteFiChannel
from repro.wsdb.citywide import CityAp, snapshot_assigned_aps
from repro.wsdb.cluster.querystorm import simulate_querystorm
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.mobility import (
    ENGINES,
    associate_nearest,
    simulate_roaming,
    spawn_clients,
)
from repro.wsdb.model import Metro, generate_metro
from repro.wsdb.service import WhiteSpaceDatabase

np = pytest.importorskip("numpy")


def fresh_db(
    seed: int, extent_m: float = 3_000.0, **kwargs
) -> WhiteSpaceDatabase:
    # A fresh database per run: engines must not share cache state.
    metro = generate_metro(range(0, 10), seed=seed, extent_m=extent_m)
    return WhiteSpaceDatabase(metro, **kwargs)


def fresh_router(seed: int, num_shards: int = 4, **kwargs) -> ShardRouter:
    metro = generate_metro(range(0, 10), seed=seed, extent_m=3_000.0)
    return ShardRouter(metro, num_shards=num_shards, **kwargs)


def roaming_pair(seed: int, db_kwargs=None, **kwargs):
    """(scalar, vector) roaming reports for one configuration."""
    reports = []
    for engine in ENGINES:
        db = fresh_db(seed, **(db_kwargs or {}))
        reports.append(
            simulate_roaming(db, engine=engine, seed=seed, **kwargs)
        )
    return reports


def querystorm_pair(seed: int, router_kwargs=None, **kwargs):
    """(scalar, vector) querystorm reports for one configuration."""
    reports = []
    for engine in ENGINES:
        router = fresh_router(seed, **(router_kwargs or {}))
        reports.append(
            simulate_querystorm(router, engine=engine, seed=seed, **kwargs)
        )
    return reports


def assert_identical(scalar: dict, vector: dict) -> None:
    """Full-report equality with a readable per-key diff on failure."""
    diffs = {
        key: (scalar[key], vector[key])
        for key in scalar
        if scalar[key] != vector[key]
    }
    assert set(scalar) == set(vector)
    assert not diffs, f"engine reports diverge: {sorted(diffs)}: {diffs}"


class TestRoamingEquivalence:
    """The tentpole property: same seed -> same report, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 13, 99])
    @pytest.mark.parametrize("num_clients", [1, 7, 40])
    def test_seeds_by_fleet_sizes(self, seed, num_clients):
        scalar, vector = roaming_pair(
            seed,
            num_aps=8,
            num_clients=num_clients,
            duration_us=90e6,
            mic_events=3,
        )
        assert_identical(scalar, vector)

    @pytest.mark.parametrize("speed_mps", [3.0, 14.0, 45.0])
    def test_speeds(self, speed_mps):
        # Slow fleets rarely cross cells (TTL-dominated re-checks);
        # fast fleets cross cells and waypoints constantly (the numpy
        # crossing fallback and the per-client RNG replay get work).
        scalar, vector = roaming_pair(
            13,
            num_aps=8,
            num_clients=12,
            duration_us=90e6,
            mic_events=2,
            speed_mps=speed_mps,
        )
        assert_identical(scalar, vector)

    def test_trigger_and_query_resolutions_can_differ(self):
        # recheck_m != cache_resolution_m: the re-check *trigger*
        # quantizes at 150 m while the *query* cell quantizes at the
        # database's own 100 m — the vector engine must compute both.
        scalar, vector = roaming_pair(
            13,
            num_aps=8,
            num_clients=10,
            duration_us=90e6,
            mic_events=2,
            recheck_m=150.0,
        )
        assert scalar["recheck_m"] == 150.0
        assert_identical(scalar, vector)

    def test_tiny_cache_forces_identical_eviction_order(self):
        # A 4-slot LRU evicts constantly; identical final stats mean
        # the batched path replayed the scalar engine's exact cache
        # access sequence, not merely the same totals.
        scalar, vector = roaming_pair(
            13,
            db_kwargs=dict(cache_capacity=4),
            num_aps=8,
            num_clients=15,
            duration_us=90e6,
            mic_events=2,
        )
        assert scalar["db"]["evictions"] > 0
        assert_identical(scalar, vector)

    def test_dense_fleet_shares_cells(self):
        # 400 clients on a 1 km metro (100 response cells): most of a
        # tick's re-checks share a cell with another client's, so the
        # batch lookup and the association loop run on crowded columns.
        scalar, vector = roaming_pair(
            5,
            db_kwargs=dict(extent_m=1_000.0),
            num_aps=8,
            num_clients=400,
            duration_us=90e6,
            mic_events=3,
        )
        assert scalar["db"]["hit_rate"] > 0.9
        assert_identical(scalar, vector)

    def test_per_client_and_final_cells_are_tracked(self):
        _, vector = roaming_pair(
            7, num_aps=6, num_clients=5, duration_us=60e6
        )
        assert len(vector["per_client"]) == 5
        assert len(vector["final_cells"]) == 5
        assert all(
            isinstance(q, int) for cell in vector["final_cells"] for q in cell
        )

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown engine"):
            simulate_roaming(
                fresh_db(0),
                num_aps=5,
                num_clients=3,
                duration_us=1e6,
                seed=0,
                engine="turbo",
            )


class TestQuerystormEquivalence:
    """The cluster twin: storm, admission, and push all stay in step."""

    @pytest.mark.parametrize("seed", [13, 99])
    def test_plain_storm(self, seed):
        scalar, vector = querystorm_pair(
            seed,
            num_aps=8,
            num_clients=15,
            duration_us=90e6,
            offered_qps=40.0,
            mic_events=3,
        )
        assert_identical(scalar, vector)

    def test_push_notifications(self, ):
        scalar, vector = querystorm_pair(
            13,
            num_aps=8,
            num_clients=15,
            duration_us=90e6,
            offered_qps=30.0,
            mic_events=5,
            push=True,
        )
        assert scalar["push_stats"]["notifications"] >= 0
        assert_identical(scalar, vector)

    @pytest.mark.parametrize("policy", ["reject", "serve-stale"])
    def test_rate_limited_storm(self, policy):
        # Token-bucket admission is order-sensitive; identical
        # shed/deferral counters prove the vector engine issues the
        # scalar engine's exact request sequence.
        scalar, vector = querystorm_pair(
            13,
            num_aps=8,
            num_clients=15,
            duration_us=90e6,
            offered_qps=60.0,
            mic_events=3,
            rate_limit_qps=20.0,
            policy=policy,
        )
        assert scalar["frontend"]["shed"] > 0
        assert_identical(scalar, vector)

    def test_push_under_rate_limit(self):
        scalar, vector = querystorm_pair(
            99,
            num_aps=8,
            num_clients=12,
            duration_us=90e6,
            offered_qps=60.0,
            mic_events=5,
            push=True,
            rate_limit_qps=20.0,
        )
        assert_identical(scalar, vector)

    def test_zero_clients_pure_storm(self):
        scalar, vector = querystorm_pair(
            7,
            num_aps=5,
            num_clients=0,
            duration_us=60e6,
            offered_qps=25.0,
        )
        assert scalar["per_client"] == ()
        assert scalar["final_cells"] == ()
        assert_identical(scalar, vector)

    def test_unknown_engine_rejected(self):
        with pytest.raises(SimulationError, match="unknown engine"):
            simulate_querystorm(
                fresh_router(0),
                num_aps=5,
                num_clients=3,
                duration_us=1e6,
                seed=0,
                engine="columnar",
            )


class TestVectorFleetInternals:
    def test_response_interning_dedupes(self):
        from repro.wsdb.vector import VectorFleet
        from repro.wsdb.mobility import spawn_clients

        fleet = VectorFleet(spawn_clients(3, 0, "t", 1_000.0), 1_000.0)
        a = fleet.intern((1, 2, 3))
        b = fleet.intern((1, 2, 3))
        c = fleet.intern((4,))
        assert a == b
        assert c != a
        # Id 0 is the pre-seeded "never queried" empty response.
        assert fleet.intern(()) == 0

    def test_cells_match_scalar_quantization(self):
        from repro.wsdb.service import quantize_cell
        from repro.wsdb.vector import VectorFleet
        from repro.wsdb.mobility import spawn_clients

        clients = spawn_clients(50, 3, "t", 5_000.0)
        fleet = VectorFleet(clients, 5_000.0)
        qx, qy = fleet.cells(100.0)
        for i, c in enumerate(clients):
            assert (qx[i], qy[i]) == quantize_cell(c.x_m, c.y_m, 100.0)


def _ap(
    ap_id: int, x_m: float, y_m: float, center: int | None = 14
) -> CityAp:
    channel = None if center is None else WhiteFiChannel(center, 5.0)
    return CityAp(ap_id, x_m, y_m, channel=channel)


#: Free channels that permit every ``_ap`` at the default center.
_FREE = tuple(range(10, 20))


class TestVectorAssociation:
    """``VectorFleet.associate_and_score`` on hand-built AP snapshots.

    The cases the scalar ``associate_nearest`` tests pin, run through
    the columnar masked running minimum and checked client by client
    against the scalar rule.
    """

    POINTS = [(0.0, 0.0), (60.0, 40.0), (450.0, 10.0)]

    @pytest.mark.parametrize(
        "aps, response, want",
        [
            pytest.param(
                [_ap(3, 100.0, 0.0), _ap(7, 0.0, 100.0)],
                _FREE,
                [3, 3, 3],
                id="equidistant-aps-resolve-to-lower-id",
            ),
            pytest.param(
                [
                    _ap(0, 10.0, 0.0, center=None),
                    _ap(1, 90.0, 0.0, center=None),
                ],
                _FREE,
                [-1, -1, -1],
                id="no-live-aps",
            ),
            pytest.param(
                [_ap(0, 10.0, 0.0), _ap(1, 500.0, 0.0)],
                (),
                [-1, -1, -1],
                id="response-permits-no-ap",
            ),
            pytest.param(
                [_ap(0, 10.0, 0.0, center=5), _ap(1, 500.0, 0.0)],
                _FREE,
                [1, 1, 1],
                id="denied-nearest-ap-is-skipped",
            ),
        ],
    )
    def test_matches_scalar_rule(self, aps, response, want):
        from repro.wsdb.vector import VectorFleet

        fleet = VectorFleet(
            spawn_clients(len(self.POINTS), 0, "t", 1_000.0), 1_000.0
        )
        fleet.x[:] = [x for x, _ in self.POINTS]
        fleet.y[:] = [y for _, y in self.POINTS]
        live, _ = snapshot_assigned_aps(aps)
        fleet.set_snapshot(live, 1 + max(ap.ap_id for ap in aps))
        fleet.resp_id[:] = fleet.intern(response)

        connected, new_ap, *_ = fleet.associate_and_score(
            Metro(extent_m=1_000.0, num_channels=30), 0.0
        )

        assert new_ap.tolist() == want
        assert connected.tolist() == [ap_id >= 0 for ap_id in want]
        for (x, y), got in zip(self.POINTS, new_ap.tolist()):
            ap = associate_nearest(x, y, frozenset(response), live)
            assert got == (-1 if ap is None else ap.ap_id)
