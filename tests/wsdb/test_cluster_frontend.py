"""Tests for the BatchFrontend: token-bucket admission, burst
coalescing, shed policies, stale-store invalidation, and the array
request path's equivalence to its request-by-request reference."""

import random

import numpy as np
import pytest

from repro.errors import SimulationError, SpectrumMapError
from repro.wsdb.cluster.frontend import (
    BatchFrontend,
    SHED_POLICIES,
    TokenBucket,
)
from repro.wsdb.cluster.push import PushRegistry
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.model import Metro, MicRegistration, generate_metro
from repro.wsdb.service import (
    PACKABLE_CELLS,
    WhiteSpaceDatabase,
    free_channels,
    quantize_cell,
    ttl_bucket,
)


def dense_router(num_shards: int = 4) -> ShardRouter:
    metro = generate_metro(range(12), extent_m=4_000.0, seed=7, num_channels=30)
    return ShardRouter(metro, num_shards=num_shards)


def ask(frontend, points, t_us=0.0):
    """One burst's answers as channel tuples, None for a refusal."""
    tuples = frontend.router.responses.tuples
    return [
        None if rid < 0 else tuples[rid]
        for rid in frontend.query_batch(points, t_us).tolist()
    ]


class TestTokenBucket:
    def test_unlimited_when_rate_is_none(self):
        bucket = TokenBucket(None)
        assert all(bucket.admit(0.0) for _ in range(10_000))

    def test_burst_then_refill(self):
        bucket = TokenBucket(rate_qps=10.0, burst_size=3)
        # Full burst at t=0, then dry.
        assert [bucket.admit(0.0) for _ in range(4)] == [True] * 3 + [False]
        # 10 qps -> one token every 100 ms of simulation time.
        assert bucket.admit(100_000.0) is True
        assert bucket.admit(100_000.0) is False

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate_qps=1.0, burst_size=1)
        assert bucket.admit(5e6) is True
        # An out-of-order earlier timestamp mints nothing.
        assert bucket.admit(1e6) is False

    def test_default_burst_is_one_second(self):
        bucket = TokenBucket(rate_qps=50.0)
        assert bucket.burst_size == 50.0

    def test_sub_one_qps_rate_still_admits(self):
        # The default burst floors at one token: a 0.5 qps bucket must
        # not start (and stay) permanently below the admit threshold.
        bucket = TokenBucket(rate_qps=0.5)
        assert bucket.admit(0.0) is True
        assert bucket.admit(0.0) is False
        assert bucket.admit(2e6) is True  # 2 s at 0.5 qps -> one token

    def test_invalid_parameters_raise(self):
        with pytest.raises(SpectrumMapError):
            TokenBucket(rate_qps=0.0)
        with pytest.raises(SpectrumMapError):
            TokenBucket(rate_qps=10.0, burst_size=0.5)


class TestBatching:
    def test_batch_answers_match_direct_database(self):
        metro_args = dict(extent_m=4_000.0, seed=7, num_channels=30)
        single = WhiteSpaceDatabase(generate_metro(range(12), **metro_args))
        frontend = BatchFrontend(dense_router())
        points = [(x * 137.0 % 4_000.0, x * 211.0 % 4_000.0) for x in range(120)]
        assert ask(frontend, points, 5.0) == free_channels(single, points, 5.0)

    def test_same_cell_burst_coalesces_to_one_lookup(self):
        frontend = BatchFrontend(dense_router())
        burst = [(1_010.0 + i * 0.5, 1_010.0) for i in range(40)]  # one cell
        responses = frontend.query_batch(burst, 0.0)
        assert responses.dtype == np.int64
        assert len(set(responses.tolist())) == 1 and responses[0] >= 0
        assert frontend.stats.requests == 40
        assert frontend.stats.coalesced == 39
        assert frontend.stats.shard_batches == 1
        # The shards saw one query, not forty.
        assert frontend.router.aggregate_stats().queries == 1

    def test_multi_shard_burst_batches_per_shard(self):
        router = dense_router(num_shards=4)
        frontend = BatchFrontend(router)
        # One point per quadrant of the 4 km plane.
        burst = [(500.0, 500.0), (3_500.0, 500.0), (500.0, 3_500.0), (3_500.0, 3_500.0)]
        frontend.query_batch(burst, 0.0)
        assert frontend.stats.shard_batches == 4
        assert frontend.stats.coalesced == 0

    def test_empty_batch_is_free(self):
        frontend = BatchFrontend(dense_router())
        assert frontend.query_batch([], 0.0).tolist() == []
        assert frontend.stats.batches == 0


class TestShedding:
    def test_reject_policy_returns_none_over_limit(self):
        frontend = BatchFrontend(
            dense_router(), rate_limit_qps=10.0, burst_size=2
        )
        responses = ask(frontend, [(100.0, 100.0)] * 5, 0.0)
        assert responses[:2] == [responses[0]] * 2
        assert responses[2:] == [None, None, None]
        assert frontend.stats.shed == 3
        assert frontend.stats.served_stale == 0
        assert frontend.stats.shed_rate == pytest.approx(0.6)

    def test_serve_stale_answers_from_last_known_response(self):
        frontend = BatchFrontend(
            dense_router(), rate_limit_qps=10.0, burst_size=1, policy="serve-stale"
        )
        [first] = ask(frontend, [(100.0, 100.0)], 0.0)
        assert first is not None
        # Bucket dry at the same timestamp: the same cell is served
        # stale; a cold cell has nothing to offer and is refused.
        assert ask(frontend, [(120.0, 120.0)], 0.0) == [first]
        assert frontend.stats.served_stale == 1
        assert ask(frontend, [(3_900.0, 3_900.0)], 0.0) == [None]
        assert frontend.stats.shed == 2

    def test_serve_stale_never_serves_past_the_ttl_bucket(self):
        # A stale entry is only valid inside the TTL bucket it was
        # computed in — the protocol's own validity contract.  A shed
        # request in a later bucket finds the entry dead and is
        # refused, exactly as the database itself would recompute.
        frontend = BatchFrontend(
            dense_router(), rate_limit_qps=10.0, burst_size=1, policy="serve-stale"
        )
        assert ask(frontend, [(100.0, 100.0)], 0.0) != [None]
        frontend.bucket._tokens = 0.0
        frontend.bucket._last_t_us = 61e6
        assert ask(frontend, [(120.0, 120.0)], 61e6) == [None]
        assert frontend.stats.served_stale == 0
        assert frontend.stats.shed == 1

    def test_admitted_requests_in_a_shed_batch_still_answer(self):
        # Mixed batch: the first request drains the bucket, the rest
        # shed, and ordering is preserved position by position.
        frontend = BatchFrontend(
            dense_router(), rate_limit_qps=10.0, burst_size=1
        )
        a, b, c = ask(
            frontend, [(100.0, 100.0), (2_900.0, 100.0), (100.0, 2_900.0)], 0.0
        )
        assert a is not None
        assert b is None and c is None

    def test_unknown_policy_raises(self):
        for name in ("drop-table", "nope"):
            with pytest.raises(SimulationError, match="unknown shed policy"):
                BatchFrontend(dense_router(), policy=name)
        assert set(SHED_POLICIES) == {"reject", "serve-stale"}


class TestStaleInvalidation:
    def test_register_mic_purges_stale_entries_inside_the_zone(self):
        frontend = BatchFrontend(
            dense_router(), rate_limit_qps=10.0, burst_size=2,
            policy="serve-stale",
        )
        points = [(1_000.0, 1_000.0), (3_800.0, 3_800.0)]
        inside, outside = ask(frontend, points, 0.0)
        assert inside is not None and outside is not None
        frontend.register_mic(
            MicRegistration.single_session(
                14, 1_000.0, 1_000.0, 0.0, 60e6, radius_m=500.0
            )
        )
        # The bucket is dry: both requests shed, and only the cell the
        # zone never touched still has a stale response to serve.
        assert ask(frontend, points, 0.0) == [None, outside]
        assert frontend.stats.served_stale == 1

    def test_register_mic_notifies_attached_registry(self):
        router = dense_router()
        registry = PushRegistry(router.cache_resolution_m)
        frontend = BatchFrontend(router, push=registry)
        registry.subscribe(5, *router.cell_of(1_000.0, 1_000.0))
        registry.subscribe(9, *router.cell_of(3_800.0, 3_800.0))
        notified = frontend.register_mic(
            MicRegistration.single_session(
                14, 1_000.0, 1_000.0, 0.0, 60e6, radius_m=500.0
            )
        )
        assert notified == (5,)

    def test_mismatched_registry_resolution_raises(self):
        router = dense_router()
        with pytest.raises(SimulationError):
            BatchFrontend(router, push=PushRegistry(router.cache_resolution_m * 2))

    def test_no_registry_means_empty_notification(self):
        frontend = BatchFrontend(dense_router())
        reg = MicRegistration.single_session(14, 500.0, 500.0, 0.0, 60e6)
        assert frontend.register_mic(reg) == ()

    def test_metro_with_empty_dial_still_serves(self):
        router = ShardRouter(
            Metro(extent_m=2_000.0, num_channels=10), num_shards=4
        )
        frontend = BatchFrontend(router)
        assert ask(frontend, [(1_000.0, 1_000.0)], 0.0) == [tuple(range(10))]


class TestAdmitMany:
    """``admit_many(t, n)`` is exactly n sequential ``admit(t)`` calls."""

    @pytest.mark.parametrize("seed", [1, 2, 3, 4])
    @pytest.mark.parametrize(
        "rate_qps, burst_size",
        [(None, None), (7.3, None), (2.5, 4.5), (1_000.0, 37.0), (0.4, None)],
    )
    def test_matches_sequential_admits(self, seed, rate_qps, burst_size):
        rng = random.Random(seed)
        many = TokenBucket(rate_qps, burst_size)
        one = TokenBucket(rate_qps, burst_size)
        t_us = 0.0
        for _ in range(300):
            # Mostly forward in time by fractional-token steps, with
            # repeated stamps, out-of-order stamps and empty offers.
            step = rng.choice([0.0, 0.0, -2.5e5, 1.7e4, 3.3e5, 1.25e6])
            t_us = max(0.0, t_us + step)
            n = rng.choice([0, 0, 1, 2, 5, 17, 60])
            expected = sum(one.admit(t_us) for _ in range(n))
            assert many.admit_many(t_us, n) == expected
            assert many._tokens == one._tokens
            assert many._last_t_us == one._last_t_us

    def test_zero_offer_touches_nothing(self):
        bucket = TokenBucket(rate_qps=10.0, burst_size=3)
        assert bucket.admit_many(0.0, 3) == 3
        assert bucket.admit_many(5e5, 0) == 0
        assert bucket._last_t_us == 0.0 and bucket._tokens == 0.0


class TestShardsOfCells:
    @pytest.mark.parametrize("num_shards", [1, 5, 6, 16])
    def test_matches_shard_of_cell(self, num_shards):
        router = dense_router(num_shards=num_shards)
        expected_grid = {1: (1, 1), 5: (1, 5), 6: (2, 3), 16: (4, 4)}
        assert router.grid == expected_grid[num_shards]
        side = router.cells_per_side
        # Every on-plane cell plus a frame of off-plane (negative and
        # past-the-edge) cells around it.
        span = np.arange(-3, side + 3)
        qx, qy = (a.ravel() for a in np.meshgrid(span, span))
        got = router.shards_of_cells(qx, qy)
        assert got.tolist() == [
            router.shard_of_cell(x, y) for x, y in zip(qx.tolist(), qy.tolist())
        ]


def stale_entries(frontend):
    """The frontend's stale-store columns as ``{cell: (bucket, id)}``."""
    key, bucket, rid = frontend._stale.tolist()
    lo = PACKABLE_CELLS[0]
    return {
        ((k >> 26) + lo, (k & ((1 << 26) - 1)) + lo): (b, r)
        for k, b, r in zip(key, bucket, rid)
    }


def reference_query_batch(frontend, stale, points, t_us):
    """The request-by-request burst algorithm the array path replaces.

    Admission per request in order, then the admitted cells grouped by
    shard in first-occurrence order, shards called in ascending order
    (one router call each), the stale store — the dict *stale*, cell ->
    (bucket, response id) — refreshed in first-occurrence order, and
    shed requests answered under the policy in request order.  Returns
    response ids, -1 for a refusal.
    """
    router = frontend.router
    stats = frontend.stats
    stats.batches += 1
    stats.requests += len(points)
    frontend._bucket_now = ttl_bucket(t_us, router.ttl_us)
    plan = []
    for x_m, y_m in points:
        admitted = frontend.bucket.admit(t_us)
        stats.admitted += admitted
        stats.shed += not admitted
        plan.append((quantize_cell(x_m, y_m, router.cache_resolution_m), admitted))
    by_shard, seen = {}, {}
    for cell, admitted in plan:
        if admitted and cell not in seen:
            seen[cell] = None
            by_shard.setdefault(router.shard_of_cell(*cell), []).append(cell)
    stats.coalesced += sum(a for _, a in plan) - len(seen)
    responses = {}
    for shard_id in sorted(by_shard):
        stats.shard_batches += 1
        cells = by_shard[shard_id]
        lookup = router.response_ids_in_cells(np.array(cells), t_us)
        responses.update(zip(cells, lookup.ids.tolist()))
    for cell in seen:  # first-occurrence order
        stale[cell] = (frontend._bucket_now, responses[cell])
    answers = []
    for cell, admitted in plan:
        entry = stale.get(cell)
        if admitted:
            answers.append(responses[cell])
        elif (
            frontend.policy == "serve-stale"
            and entry is not None
            and entry[0] == frontend._bucket_now
        ):
            stats.served_stale += 1
            answers.append(entry[1])
        else:
            answers.append(-1)
    return answers


class TestArrayQueryBatchEquivalence:
    @pytest.mark.parametrize("policy", ["reject", "serve-stale"])
    @pytest.mark.parametrize("seed", [5, 6])
    def test_matches_per_request_reference(self, policy, seed):
        rng = random.Random(seed)
        params = dict(rate_limit_qps=40.0, burst_size=25, policy=policy)
        array_fe = BatchFrontend(dense_router(6), **params)
        ref_fe = BatchFrontend(dense_router(6), **params)
        ref_stale = {}
        t_us = 0.0
        for _ in range(12):
            t_us += rng.choice([0.0, 2e5, 7.5e5, 61e6])
            # A burst that straddles the token limit, with duplicate
            # cells (a small pool of hot spots) and off-plane points.
            hot = [(rng.uniform(-200.0, 4_200.0), rng.uniform(-200.0, 4_200.0))
                   for _ in range(6)]
            points = [
                rng.choice(hot) if rng.random() < 0.5
                else (rng.uniform(0.0, 4_000.0), rng.uniform(0.0, 4_000.0))
                for _ in range(rng.choice([1, 10, 30, 45]))
            ]
            got = array_fe.query_batch(np.array(points), t_us)
            assert got.tolist() == reference_query_batch(
                ref_fe, ref_stale, points, t_us
            )
            assert array_fe.stats == ref_fe.stats
            assert stale_entries(array_fe) == ref_stale
            a, b = array_fe.router, ref_fe.router
            assert a.per_shard_stats() == b.per_shard_stats()
            for shard in range(a.num_shards):
                assert a.cached_items(shard) == b.cached_items(shard)
        assert array_fe.stats.shed > 0 and array_fe.stats.coalesced > 0
        if policy == "serve-stale":
            assert array_fe.stats.served_stale > 0

    @staticmethod
    def check_bursts(router_of, params, bursts):
        """Each (points, t_us) burst through the array path and the
        reference: answers, stats, stale store, per-shard stats, LRU."""
        array_fe = BatchFrontend(router_of(), **params)
        ref_fe = BatchFrontend(router_of(), **params)
        ref_stale = {}
        for points, t_us in bursts:
            got = array_fe.query_batch(np.array(points, dtype=float), t_us)
            assert got.tolist() == reference_query_batch(
                ref_fe, ref_stale, points, t_us
            )
            assert array_fe.stats == ref_fe.stats
            assert stale_entries(array_fe) == ref_stale
            a, b = array_fe.router, ref_fe.router
            assert a.per_shard_stats() == b.per_shard_stats()
            for shard in range(a.num_shards):
                assert a.cached_items(shard) == b.cached_items(shard)
        return array_fe

    @pytest.mark.parametrize("policy", SHED_POLICIES)
    def test_storm_sized_bursts(self, policy):
        # 3,000-request bursts over the 4 km plane: many cells repeat
        # within a burst, and a fifth of every burst is shed.
        rng = random.Random(31)
        bursts = [
            (
                [(rng.uniform(0.0, 4_000.0), rng.uniform(0.0, 4_000.0))
                 for _ in range(3_000)],
                t_us,
            )
            for t_us in (0.0, 1e6, 2e6, 62e6)
        ]
        params = dict(rate_limit_qps=2_400.0, burst_size=2_400, policy=policy)
        fe = self.check_bursts(lambda: dense_router(16), params, bursts)
        assert fe.stats.coalesced > fe.stats.admitted // 4
        assert (fe.stats.served_stale > 0) == (policy == "serve-stale")

    @pytest.mark.parametrize("policy", SHED_POLICIES)
    def test_one_cell_and_one_admitted_bursts(self, policy):
        one_cell = [(1_234.5, 987.6)] * 50
        bursts = [
            (one_cell, 0.0),  # every request in one cell: k = 10
            ([(3_000.0, 10.0)], 1e6),  # a one-request burst
            ((one_cell[:1] + [(10.0, 3_900.0)] * 5) * 3, 1.5e6),  # k = 1
            (one_cell, 2e6),
        ]
        params = dict(rate_limit_qps=2.0, burst_size=10, policy=policy)
        fe = self.check_bursts(dense_router, params, bursts)
        assert fe.stats.coalesced > 0 and fe.stats.shed > 0

    @pytest.mark.parametrize("k", [1, 2, 2_048, 3_000])
    def test_cells_at_both_packable_corners(self, k):
        # Cells at the lowest and the highest packable corners: the
        # cell key spans 2**52 values, where a key * k position pack
        # overflows int64 from k = 2048 on.  One square-metre cells on
        # a plane whose TV site the corners are far from.
        lo, hi = PACKABLE_CELLS
        metro = Metro(num_channels=30)
        corners = [(lo, lo), (lo, hi - 1), (hi - 1, lo), (hi - 1, hi - 1)]
        rng = random.Random(k)
        points = [
            (qx + 0.5, qy + 0.5)
            for qx, qy in (rng.choice(corners) for _ in range(k))
        ]
        points[0] = (hi - 0.5, hi - 0.5)  # the very last packable cell
        self.check_bursts(
            lambda: ShardRouter(metro, num_shards=4, cache_resolution_m=1.0),
            dict(policy="serve-stale"),
            [(points, 0.0), (points[::-1], 1e6)],
        )

    def test_list_of_pairs_equals_array(self):
        points = [(100.0, 100.0), (2_900.0, 100.0), (100.0, 100.0)]
        from_list = BatchFrontend(dense_router()).query_batch(points, 0.0)
        from_array = BatchFrontend(dense_router()).query_batch(
            np.array(points), 0.0
        )
        assert from_list.tolist() == from_array.tolist()
