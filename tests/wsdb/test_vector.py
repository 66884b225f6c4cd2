"""Tests for the columnar vector engine: bit-identical to the scalar
per-client loop — full-report equality, nested db/frontend/push stats
included — across seeds, fleet sizes, speeds, and cluster policies."""

import numpy as np
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
        a, b, c, empty = fleet.responses.ids([(1, 2, 3), (1, 2, 3), (4,), ()])
        assert a == b
        assert c != a
        # Id 0 is the pre-seeded "never queried" empty response.
        assert empty == 0
        assert fleet.responses.sets[a] == frozenset((1, 2, 3))

    def test_cells_match_scalar_quantization(self):
        from repro.wsdb.service import quantize_cell
        from repro.wsdb.vector import VectorFleet
        from repro.wsdb.mobility import spawn_clients

        clients = spawn_clients(50, 3, "t", 5_000.0)
        fleet = VectorFleet(clients, 5_000.0)
        qx, qy = fleet.cells(100.0)
        for i, (x, y) in enumerate(zip(clients.x, clients.y)):
            assert (qx[i], qy[i]) == quantize_cell(float(x), float(y), 100.0)


def _walk_state(fleet) -> list:
    return [
        col.tolist()
        for col in (fleet.x, fleet.y, fleet.wx, fleet.wy, fleet.drawn)
    ]


class TestWaypointCrossings:
    """``VectorFleet.advance``'s array crossing passes against
    ``ScalarFleet``'s per-client :func:`advance_position` loop."""

    @staticmethod
    def _fleets(n: int, extent_m: float, seed: int = 4):
        from repro.wsdb.session import ScalarFleet
        from repro.wsdb.vector import VectorFleet

        spawned = spawn_clients(n, seed, "cross", extent_m)
        return VectorFleet(spawned, extent_m), ScalarFleet(spawned, extent_m)

    def test_crossing_heavy_parity_tick_by_tick(self):
        # A 40 m plane at 14 m/s: legs average ~20 m, so walkers reach
        # one, two or more waypoints within a single tick.
        vector, scalar = self._fleets(400, 40.0)
        for fleet in (vector, scalar):
            # Walker 0's leg is exactly one step long: it reaches the
            # waypoint with no distance left, and draws the next one.
            fleet.x[0], fleet.y[0], fleet.wx[0], fleet.wy[0] = 10, 5, 10, 19
        multi = 0
        for k in range(30):
            before = vector.drawn.copy()
            vector.advance(14.0)
            scalar.advance(14.0)
            assert _walk_state(vector) == _walk_state(scalar), k
            if k == 0:
                assert (vector.x[0], vector.y[0], vector.drawn[0]) == (10, 19, 2)
            multi += int(np.count_nonzero(vector.drawn - before >= 2))
        assert multi > 100

    def test_degenerate_double_draw_on_both_engines(self):
        from repro.wsdb.mobility import waypoint

        # On a plane one denormal wide every coordinate draws 0 or the
        # denormal, and every leg squares to 0: each walker crosses
        # waypoint after waypoint until two draws in a row are the same
        # point, which ends its tick (the degenerate double-draw rule).
        extent = 5e-324
        vector, scalar = self._fleets(64, extent)
        for k in range(3):
            before = vector.drawn.tolist()
            vector.advance(14.0)
            scalar.advance(14.0)
            assert _walk_state(vector) == _walk_state(scalar), k
            assert vector.x.tolist() == vector.wx.tolist()
            assert vector.y.tolist() == vector.wy.tolist()
            for i, (start, end) in enumerate(zip(before, vector.drawn.tolist())):
                path = [waypoint(vector.key, i, d, extent)
                        for d in range(start, end + 1)]
                # The tick stops at the first repeated point, no sooner.
                assert path[-1] == path[-2]
                assert all(a != b for a, b in zip(path[:-2], path[1:-1]))
        assert (vector.drawn - 1).max() > 3

    def test_path_does_not_depend_on_fleet_size(self):
        from repro.wsdb.vector import VectorFleet

        small = VectorFleet(spawn_clients(10, 8, "size", 200.0), 200.0)
        large = VectorFleet(spawn_clients(1_000, 8, "size", 200.0), 200.0)
        for _ in range(40):
            small.advance(14.0)
            large.advance(14.0)
        assert (small.drawn > 2).all()
        assert _walk_state(small) == [col[:10] for col in _walk_state(large)]


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
    the columnar first-minimum pass over the (live APs x clients)
    distance table — every client is evaluated, as on the first tick
    after a snapshot — and checked client by client against the
    scalar rule.
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
        everyone = np.arange(fleet.n)
        qx, qy = fleet.cells(100.0)
        fleet.commit_recheck(
            everyone, qx, qy, 0, fleet.responses.ids([response] * fleet.n)
        )

        connected, new_ap, *_ = fleet.associate_and_score(
            Metro(extent_m=1_000.0, num_channels=30), 0.0
        )

        assert new_ap.tolist() == want
        assert connected.tolist() == [ap_id >= 0 for ap_id in want]
        for (x, y), got in zip(self.POINTS, new_ap.tolist()):
            ap = associate_nearest(x, y, frozenset(response), live)
            assert got == (-1 if ap is None else ap.ap_id)


def _slack_aps(rebuild: int = 0) -> list[CityAp]:
    """The differential metro: a bisector pair (0, 1) on x = 500, a
    co-located pair (2, 3), an AP (4) with no channel until the first
    snapshot rebuild, and a lone AP (5) on its own channel."""
    aps = [
        _ap(0, 300.0, 500.0, center=14),
        _ap(1, 700.0, 500.0, center=14),
        _ap(2, 500.0, 900.0, center=12),
        _ap(3, 500.0, 900.0, center=16),
        _ap(4, 150.0, 150.0, center=None),
        _ap(5, 850.0, 150.0, center=18),
    ]
    if rebuild == 1:
        aps[4] = _ap(4, 150.0, 150.0, center=18)
        aps[1] = _ap(1, 700.0, 500.0, center=16)
        aps[2] = _ap(2, 500.0, 900.0, center=None)
    return aps


#: Responses by eligible set: every AP, none, the lone channel-18 AP
#: only, one of the co-located pair only, all but the bisector pair,
#: and two supersets of earlier entries that permit the same APs.
_SLACK_RESPONSES = [
    (12, 14, 16, 18),
    (),
    (18,),
    (16,),
    (12, 16, 18),
    (12, 14),
    (12, 14, 16, 18, 19),
    (18, 20),
]

#: Hand-placed walkers, (x, y, waypoint x, waypoint y): on the
#: bisector of APs 0 and 1, landing on AP 0 as a waypoint, passing
#: through AP 1, through the co-located pair, and crossing a waypoint
#: on the first tick.
_SLACK_WALKERS = [
    (500.0, 400.0, 500.0, 880.0),
    (60.0, 500.0, 300.0, 500.0),
    (640.0, 500.0, 900.0, 500.0),
    (500.0, 870.0, 500.0, 960.0),
    (100.0, 100.0, 110.0, 100.0),
]


def _drive(
    walkers,
    snapshots,
    ticks,
    step_m,
    *,
    extra=0,
    seed=0,
    commits=None,
    extent=1_000.0,
    first=None,
):
    """Slack-gated association, tick by tick, against two oracles.

    Three fleets walk the same paths: one re-evaluates only the clients
    whose slack ran out; a twin has every slack forced below zero before
    each association (a full re-evaluation); the scalar fleet associates
    client by client.  *walkers* are hand-placed ``(x, y, wx, wy)``
    rows, followed by *extra* spawned clients.  At tick k the fleets
    advance (k > 0), take ``snapshots[k]`` (a list of APs; tick 0 needs
    one), commit ``commits[k]`` (``(clients, responses)``; by default
    every client gets ``_SLACK_RESPONSES[0]`` at tick 0), then
    associate, and their outcomes and counters must agree; *first*, if
    given, is the walkers' expected ap_ids at tick 0.  Returns the
    gated fleet and the number of client-ticks its gate skipped, in
    total and right after snapshot changes.
    """
    from repro.wsdb.session import ScalarFleet
    from repro.wsdb.vector import VectorFleet

    n = len(walkers) + extra
    fleets = [
        kind(spawn_clients(n, seed, "slack", extent), extent)
        for kind in (VectorFleet, VectorFleet, ScalarFleet)
    ]
    gated, full, scalar = fleets
    for fleet in fleets:
        for i, (x, y, wx, wy) in enumerate(walkers):
            fleet.x[i], fleet.y[i], fleet.wx[i], fleet.wy[i] = x, y, wx, wy
    metro = Metro(extent_m=extent, num_channels=30)
    commits = commits or {0: (np.arange(n), [_SLACK_RESPONSES[0]] * n)}
    skipped = after_snapshot = 0
    for k in range(ticks):
        if k:
            for fleet in fleets:
                fleet.advance(step_m)
        if k in snapshots:
            live, _ = snapshot_assigned_aps(snapshots[k])
            num_aps = 1 + max(ap.ap_id for ap in snapshots[k])
            for fleet in fleets:
                fleet.set_snapshot(live, num_aps)
            if k:
                after_snapshot += int(np.count_nonzero(gated.slack >= 0))
        if k in commits:
            idx, picks = commits[k]
            qx, qy = gated.cells(100.0)
            for fleet in fleets:
                fleet.commit_recheck(idx, qx, qy, 0, fleet.responses.ids(picks))
        full.slack[:] = -np.inf
        skipped += int(np.count_nonzero(gated.slack >= 0))
        ticks_out = [fleet.associate_and_score(metro, 0.0) for fleet in fleets]
        for got in ticks_out[:2]:
            for name, a, b in zip(
                ("connected", "new_ap", "best_col", "handoff_mask"),
                got,
                ticks_out[2],
            ):
                assert a.tolist() == b.tolist(), (k, name)
        for fleet in (gated, full):
            assert fleet.vacations.tolist() == scalar.vacations.tolist(), k
            assert fleet.handoffs.tolist() == scalar.handoffs.tolist(), k
            assert fleet.connected.tolist() == scalar.connected.tolist(), k
        assert gated.disconnected_ticks == scalar.disconnected_ticks
        if k == 0 and first is not None:
            assert ticks_out[0][1][: len(walkers)].tolist() == first
    return gated, scalar, skipped, after_snapshot


#: A bisector pair (0, 1) on x = 500 and a third AP (2) below them,
#: all on channel 14.
_BISECTOR_APS = [
    _ap(0, 300.0, 500.0),
    _ap(1, 700.0, 500.0),
    _ap(2, 500.0, 100.0),
]


class TestMotionSlackDifferential:
    """Slack-gated association against a forced-full twin and the
    scalar fleet (:func:`_drive`): random walks with response flips and
    snapshot changes, then hand-placed walkers on the geometry the
    directional slack and the snapshot diff must get right."""

    EXTENT = 1_000.0
    TICKS = 14
    FLIP_TICKS = (3, 5, 8, 11)
    REBUILD_TICKS = {6: 1, 10: 0}

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("step_m", [30.0, 0.5])
    def test_matches_scalar_and_full_reevaluation(self, seed, step_m):
        import random

        rng = random.Random(seed)
        n = 240
        walkers = len(_SLACK_WALKERS)
        commits = {
            0: (
                np.arange(n),
                [_SLACK_RESPONSES[0]] * walkers
                + [rng.choice(_SLACK_RESPONSES) for _ in range(n - walkers)],
            )
        }
        for k in self.FLIP_TICKS:
            idx = np.sort(np.array(rng.sample(range(n), 60)))
            commits[k] = (idx, [rng.choice(_SLACK_RESPONSES) for _ in idx])
        snapshots = {0: _slack_aps(0)}
        snapshots.update(
            (k, _slack_aps(rebuild)) for k, rebuild in self.REBUILD_TICKS.items()
        )
        gated, scalar, skipped, after = _drive(
            _SLACK_WALKERS, snapshots, self.TICKS, step_m,
            extra=n - walkers, seed=seed, commits=commits,
            # Equidistant (walker 0) and co-located (walker 3) APs
            # resolve to the lower ap_id.
            first=[0, 0, 1, 2, 0],
        )
        # The walk exercised every branch the gate can skip or take,
        # and the snapshot diffs kept some clients' slack.
        assert skipped > 0
        assert after > 0
        assert scalar.vacations.sum() > 0
        assert scalar.handoffs.sum() > 0
        assert scalar.disconnected_ticks > 0

    @pytest.mark.parametrize("step_m", [30.0, 7.3, 0.5])
    def test_bisector_walkers(self, step_m):
        # Along the bisector of APs 0 and 1 (exactly, and at offsets
        # from a nanometre to a metre on either side), straight across
        # it both ways, obliquely, and along the bisector of APs 0 and 2.
        walkers = [(500.0 + d, 150.0, 500.0 + d, 950.0)
                   for d in (0.0, 1e-9, -1e-9, 1e-6, -1e-3, 1.0, -1.0)]
        walkers += [
            (380.0, 300.0, 620.0, 300.0),
            (620.0, 310.0, 380.0, 310.0),
            (450.0, 200.0, 560.0, 800.0),
            (300.0, 200.0, 700.0, 600.0),
        ]
        gated, scalar, skipped, _ = _drive(
            walkers, {0: _BISECTOR_APS}, min(1_000, int(900 / step_m)), step_m
        )
        assert skipped > 0
        # Every walker that crosses a bisector handed off.
        assert scalar.handoffs[7:].min() > 0

    def test_slack_is_the_walk_to_the_bisector(self):
        # Heading straight at the bisector of APs 0 and 1 from 100 m
        # away: the slack is that 100 m, less the margins.  Walking
        # along a parallel or receding from it: no approach, inf.  On
        # it: re-evaluated every tick.
        gated, *_ = _drive(
            [
                (400.0, 300.0, 900.0, 300.0),
                (400.0, 150.0, 400.0, 950.0),
                (250.0, 500.0, 50.0, 500.0),
                (500.0, 150.0, 500.0, 950.0),
            ],
            {0: _BISECTOR_APS[:2]}, 1, 10.0,
        )
        assert 100.0 - 1e-3 < gated.slack[0] < 100.0
        assert gated.slack[1:3].tolist() == [np.inf, np.inf]
        assert gated.slack[3] < 0

    @pytest.mark.parametrize("step_m", [30.0, 0.5])
    def test_colocated_aps(self, step_m):
        # APs 2 and 3 share a point on different channels; walkers pass
        # through it while flips permit both, one, or the other.
        import random

        rng = random.Random(7)
        walkers = [
            (500.0, 700.0, 500.0, 990.0),
            (300.0, 900.0, 700.0, 900.0),
            (520.0, 880.0, 480.0, 920.0),
        ]
        pair = [(12, 16), (12,), (16,), (12, 14, 16, 18)]
        commits = {0: (np.arange(3), [pair[0]] * 3)}
        for k in range(2, 60, 4):
            commits[k] = (np.arange(3), [rng.choice(pair) for _ in range(3)])
        _drive(walkers, {0: _slack_aps(0)}, 60, step_m, commits=commits)

    def test_zero_length_legs_and_mid_tick_crossings(self):
        # Standing on a waypoint, legs shorter than a step (one crossing
        # or several in one tick), a waypoint on an AP and one on the
        # bisector.
        walkers = [
            (500.0, 500.0, 500.0, 500.0),
            (200.0, 200.0, 200.0, 200.0),
            (495.0, 400.0, 503.0, 401.0),
            (300.0, 480.0, 300.0, 500.0),
            (510.0, 520.0, 500.0, 520.0),
            (499.0, 600.0, 501.0, 600.0),
        ]
        gated, scalar, skipped, _ = _drive(
            walkers, {0: _BISECTOR_APS}, 40, 30.0, extra=60, seed=5
        )
        assert skipped > 0

    def test_slow_walker_drifts_within_the_margin(self):
        # 0.5 m steps for hundreds of ticks on one leg: two walkers
        # cross the bisector at a shallow angle, two walk parallel to
        # it at offsets near the lateral-drift margin, and forty cross
        # it at angles so shallow (nanometres over 800 m) that the
        # rounding drift of their positions moves the crossing point
        # by centimetres; without the margins the gate misses some of
        # those crossings.
        walkers = [
            (499.7, 150.0, 500.3, 950.0),
            (500.3, 150.0, 499.7, 950.0),
            (500.0 + 2e-6, 150.0, 500.0 + 2e-6, 950.0),
            (500.0 - 5e-7, 150.0, 500.0 - 5e-7, 950.0),
        ]
        walkers += [
            (500.0 + d, 100.0 + i, 500.0 - 0.9 * d, 900.0 + i)
            for i, d in enumerate(np.arange(1, 41) * 3e-11)
        ]
        gated, scalar, skipped, _ = _drive(
            walkers, {0: _BISECTOR_APS[:2]}, 900, 0.5
        )
        # Both shallow crossers switched AP at the bisector, and the
        # gate skipped most of their ticks on the way.
        assert scalar.handoffs[:2].tolist() == [1, 1]
        assert scalar.handoffs[4:].sum() > 30
        assert skipped > 900

    def test_far_from_the_origin_the_relative_margin_carries(self):
        # Two APs a metre apart, a thousand kilometres out: an ulp of a
        # squared distance (~1e-6 m^2 at 40 km) dwarfs the drift margin
        # (2e-6 m^2), so only the relative margin keeps the gate from
        # missing these shallow crossings of their bisector.
        c = 1e6
        aps = [_ap(0, c, c), _ap(1, c + 1.0, c)]
        walkers = [
            (c + 0.5 + d, c - 4e4 + i, c + 0.5 - 0.9 * d, c + 4e4 + i)
            for i, d in enumerate(np.arange(1, 41) * 1e-7)
        ]
        _, scalar, *_ = _drive(walkers, {0: aps}, 500, 100.0, extent=2 * c)
        assert scalar.handoffs.sum() >= 40

    @pytest.mark.parametrize("seed", [1, 2])
    def test_snapshot_diffs(self, seed):
        # An identical snapshot; walker 2's AP changing channel
        # (permitted, then denied by its response); walker 3's AP moving
        # to a channel its response denies (a class flip); an AP going
        # offline and coming back; and an AP newly permitted with walker
        # 0 on its bisector with walker 0's AP (a tie the new, lower
        # column wins) and then with walker 1 on its bisector with AP 0
        # (a tie AP 0 keeps).
        import random

        base = [
            _ap(0, 300.0, 500.0),
            _ap(1, 700.0, 500.0),
            _ap(2, 500.0, 100.0, center=16),
            _ap(3, 850.0, 850.0, center=None),
            _ap(4, 140.0, 850.0, center=18),
        ]

        def changed(ap):
            return [ap if old.ap_id == ap.ap_id else old for old in base]

        snapshots = {
            0: base,
            3: list(base),
            6: changed(_ap(0, 300.0, 500.0, center=16)),
            9: changed(_ap(0, 300.0, 500.0, center=12)),
            12: changed(_ap(2, 500.0, 100.0, center=18)),
            15: changed(_ap(1, 700.0, 500.0, center=None)),
            18: base,
            21: changed(_ap(3, 160.0, 850.0, center=14)),
            24: changed(_ap(3, 300.0, 700.0, center=14)),
            27: base,
        }
        walkers = [
            (150.0, 780.0, 150.0, 990.0),
            (300.0, 600.0, 100.0, 600.0),
            (450.0, 450.0, 450.0, 990.0),
            (600.0, 200.0, 900.0, 200.0),
        ]
        full = (12, 14, 16, 18)
        rng = random.Random(seed)
        n, w = 200, len(walkers)
        commits = {
            0: (
                np.arange(n),
                [full, full, (14, 16, 18), (12, 14, 16)]
                + [rng.choice(_SLACK_RESPONSES) for _ in range(n - w)],
            )
        }
        for k in range(5, 30, 5):
            idx = np.sort(np.array(rng.sample(range(w, n), 30)))
            commits[k] = (idx, [rng.choice(_SLACK_RESPONSES) for _ in idx])
        gated, scalar, skipped, after = _drive(
            walkers, snapshots, 30, 3.0, extra=n - w, seed=seed,
            commits=commits,
        )
        assert after > 0
        assert scalar.vacations[2:4].tolist() == [1, 1]
        assert scalar.handoffs[:4].tolist()[:2] == [2, 0]
        assert scalar.handoffs[2:4].min() > 0

    def test_identical_snapshot_is_a_no_op(self):
        from repro.wsdb.vector import VectorFleet

        fleet = VectorFleet(spawn_clients(50, 3, "t", 1_000.0), 1_000.0)
        live, _ = snapshot_assigned_aps(_slack_aps())
        fleet.set_snapshot(live, 6)
        qx, qy = fleet.cells(100.0)
        fleet.commit_recheck(
            np.arange(50), qx, qy, 0,
            fleet.responses.ids([(12, 14, 16, 18)] * 50),
        )
        fleet.associate_and_score(Metro(extent_m=1_000.0, num_channels=30), 0.0)
        state = [fleet.cls, fleet.best_col, fleet.slack, fleet._resp_class]
        copies = [a.copy() for a in state]
        fleet.set_snapshot(snapshot_assigned_aps(_slack_aps())[0], 6)
        after = [fleet.cls, fleet.best_col, fleet.slack, fleet._resp_class]
        assert all(a is b for a, b in zip(state, after))
        assert all(np.array_equal(a, b) for a, b in zip(copies, after))


class TestEligibilityClasses:
    """Responses are grouped by the live APs they permit."""

    def _fleet(self):
        from repro.wsdb.vector import VectorFleet

        fleet = VectorFleet(spawn_clients(6, 0, "t", 1_000.0), 1_000.0)
        live, _ = snapshot_assigned_aps(_slack_aps())
        fleet.set_snapshot(live, 6)
        return fleet

    def _commit(self, fleet, idx, responses):
        qx, qy = fleet.cells(100.0)
        fleet.commit_recheck(
            np.asarray(idx), qx, qy, 0, fleet.responses.ids(responses)
        )

    def test_equal_eligible_sets_share_a_class(self):
        fleet = self._fleet()
        self._commit(fleet, range(6), [
            (12, 14, 16, 18), (12, 14, 16, 18, 19), (18,), (18, 20), (), (19,),
        ])
        fleet.associate_and_score(Metro(extent_m=1_000.0, num_channels=30), 0.0)
        cls = fleet.cls.tolist()
        assert cls[0] == cls[1]
        assert cls[2] == cls[3]
        assert cls[4] == cls[5]
        assert len({cls[0], cls[2], cls[4]}) == 3

    def test_grown_table_reevaluates_only_changed_classes(self):
        fleet = self._fleet()
        metro = Metro(extent_m=1_000.0, num_channels=30)
        self._commit(fleet, range(6), [(12, 14, 16, 18)] * 6)
        fleet.associate_and_score(metro, 0.0)
        # No slack runs out: only a class change can re-evaluate.
        fleet.slack[:] = 1e9
        before = len(fleet.responses)
        # Client 0's new response permits the same APs; client 1's
        # permits only AP 5.  Both are new to the table.
        self._commit(fleet, [0, 1], [(12, 14, 16, 18, 21), (18, 22)])
        assert len(fleet.responses) == before + 2
        _, new_ap, *_ = fleet.associate_and_score(metro, 0.0)
        assert fleet.slack[0] == 1e9
        assert fleet.slack[2:].tolist() == [1e9] * 4
        assert fleet.slack[1] == np.inf
        assert new_ap[1] == 5
