"""Tests for the WhiteSpaceDatabase façade: cell-granular responses,
caching, TTL-bucket expiry, and time-aware invalidation."""

import math
import random
from collections import OrderedDict

import numpy as np
import pytest

from repro.errors import SpectrumMapError
from repro.spectrum.incumbents import TvStation
from repro.spectrum.spectrum_map import SpectrumMap
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.index import (
    GridIndex,
    circle_intersects_cell,
    circle_intersects_cells,
)
from repro.wsdb.model import Metro, MicRegistration, TvTransmitterSite
from repro.wsdb.service import (
    PACKABLE_CELLS,
    ResponseTable,
    WhiteSpaceDatabase,
    WsdbStats,
    default_cell_m,
    free_channels,
    ttl_bucket,
)


def one_station_metro() -> Metro:
    # A ~2511.9 m contour on channel 3 in the middle of a 10 km plane.
    return Metro(
        extent_m=10_000.0,
        num_channels=8,
        sites=(TvTransmitterSite(TvStation(3, power_dbm=5.0), 5_000.0, 5_000.0),),
    )


def at(service, x_m, y_m, t_us=0.0):
    """The channels free at one point: a one-point free_channels batch."""
    return free_channels(service, [(x_m, y_m)], t_us)[0]


def lookup(service, cells, t_us=0.0):
    """The query primitive on ``(qx, qy)`` pairs: the channel tuple of
    every cell, and its ``(cache_hit, candidates_scanned)`` outcome."""
    ids, hit, scanned, _ = service.response_ids_in_cells(
        np.array(cells, dtype=np.int64).reshape(-1, 2), t_us
    )
    tuples = service.responses.tuples
    return (
        [tuples[i] for i in ids.tolist()],
        list(zip(hit.tolist(), scanned.tolist())),
    )


def in_cells(service, cells, t_us=0.0):
    """The channel tuple of every ``(qx, qy)`` cell, in order."""
    return lookup(service, cells, t_us)[0]


class TestCellGranularResponses:
    def test_response_covers_the_whole_cell_conservatively(self):
        # The contour edge sits at x ~= 7511.9.  (7520, 5000) is outside
        # the contour itself, but its 100 m cell [7500, 7600) reaches
        # back to x=7500, inside the contour — the area response denies
        # the channel anywhere a contour clips the cell.
        db = WhiteSpaceDatabase(one_station_metro())
        assert 3 not in db.metro.occupied_at(7_520.0, 5_000.0)
        assert 3 not in at(db, 7_520.0, 5_000.0)
        # One cell further out the contour no longer touches: free.
        assert 3 in at(db, 7_620.0, 5_000.0)

    def test_free_channels_rides_the_cell_primitive(self):
        db = WhiteSpaceDatabase(one_station_metro())
        direct = in_cells(db, [db.cell_of(5_110.0, 5_150.0)])[0]
        assert at(db, 5_105.0, 5_177.0) == direct
        assert db.stats.queries == 2
        assert db.stats.cache_hits == 1

    def test_cache_disabled_identical_answers_with_zero_hits(self):
        # The compute path is canonical per cell, so disabling the
        # cache changes performance counters only, never answers.
        cached = WhiteSpaceDatabase(one_station_metro())
        uncached = WhiteSpaceDatabase(one_station_metro(), cache_capacity=0)
        points = [
            (x, y)
            for x in (-250.0, 0.0, 2_505.0, 5_050.0, 7_520.0, 9_990.0)
            for y in (4_980.0, 5_020.0, 7_511.0)
        ]
        for _ in range(2):
            assert free_channels(cached, points) == free_channels(
                uncached, points
            )
        assert uncached.stats.cache_hits == 0
        assert uncached.stats.cache_misses == uncached.stats.queries
        assert cached.stats.cache_hits > 0

    def test_negative_coordinates_get_their_own_cells(self):
        # Floor quantization: (-50, -50) lives in cell (-1, -1), not in
        # the origin's cell — truncation toward zero would alias the
        # two and serve one side the other's response.
        db = WhiteSpaceDatabase(one_station_metro())
        assert db.cell_of(-50.0, -50.0) == (-1, -1)
        assert db.cell_of(50.0, 50.0) == (0, 0)
        at(db, -50.0, -50.0)
        at(db, -1.0, -99.0)  # same negative cell: a hit
        assert db.stats.cache_hits == 1
        at(db, 50.0, 50.0)  # across the origin: a different slot
        assert db.stats.cache_misses == 2

    def test_mic_registered_at_exact_plane_border(self):
        # The grid index clamps off-plane and border coordinates to the
        # edge cells; a venue registered exactly at (extent, extent)
        # must still deny the corner and leave the far corner alone.
        db = WhiteSpaceDatabase(one_station_metro())
        extent = db.metro.extent_m
        db.register_mic(
            MicRegistration.single_session(5, extent, extent, 0.0, 1e9)
        )
        assert 5 not in at(db, extent - 10.0, extent - 10.0, t_us=1.0)
        assert 5 not in at(db, extent, extent, t_us=1.0)
        assert 5 in at(db, 10.0, 10.0, t_us=1.0)


class TestResponseCache:
    def test_repeat_query_hits(self):
        db = WhiteSpaceDatabase(one_station_metro())
        first = at(db, 5_100.0, 5_100.0, t_us=0.0)
        second = at(db, 5_100.0, 5_100.0, t_us=1.0)
        assert first == second
        assert 3 not in first
        assert db.stats.queries == 2
        assert db.stats.cache_hits == 1
        assert db.stats.cache_misses == 1

    def test_nearby_points_share_a_quantized_response(self):
        db = WhiteSpaceDatabase(one_station_metro(), cache_resolution_m=100.0)
        at(db, 5_110.0, 5_110.0)
        at(db, 5_190.0, 5_190.0)  # same 100 m square
        assert db.stats.cache_hits == 1

    def test_ttl_bucket_expires_responses(self):
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        at(db, 5_100.0, 5_100.0, t_us=0.0)
        at(db, 5_100.0, 5_100.0, t_us=1_500.0)  # next bucket
        assert db.stats.cache_hits == 0
        assert db.stats.cache_misses == 2

    def test_lru_eviction(self):
        db = WhiteSpaceDatabase(one_station_metro(), cache_capacity=2)
        for x in (1_000.0, 2_000.0, 3_000.0):
            at(db, x, 1_000.0)
        assert db.stats.evictions == 1
        # The oldest entry was evicted: re-querying it misses.
        at(db, 1_000.0, 1_000.0)
        assert db.stats.cache_misses == 4

    def test_capacity_zero_disables_caching(self):
        db = WhiteSpaceDatabase(one_station_metro(), cache_capacity=0)
        at(db, 5_100.0, 5_100.0)
        at(db, 5_100.0, 5_100.0)
        assert db.stats.cache_hits == 0
        assert db.stats.cache_misses == 2

    def test_caching_never_changes_availability(self):
        cached = WhiteSpaceDatabase(one_station_metro())
        uncached = WhiteSpaceDatabase(one_station_metro(), cache_capacity=0)
        points = [(x, y) for x in range(0, 10_000, 500) for y in (4_000.0, 5_000.0)]
        assert free_channels(cached, points) == free_channels(uncached, points)
        assert free_channels(cached, points) == free_channels(uncached, points)
        assert cached.stats.cache_hits > 0

    def test_invalid_parameters_raise(self):
        for kwargs in (
            {"ttl_us": 0.0},
            {"cache_resolution_m": 0.0},
            {"cache_capacity": -1},
        ):
            with pytest.raises(SpectrumMapError):
                WhiteSpaceDatabase(one_station_metro(), **kwargs)


class TestTtlExpiry:
    def test_expired_buckets_are_purged_when_time_advances(self):
        # Dead responses must not occupy LRU capacity: once the
        # observed TTL bucket advances, everything behind it is purged
        # (counted as expirations, not evictions).
        db = WhiteSpaceDatabase(
            one_station_metro(), ttl_us=1_000.0, cache_capacity=4
        )
        for x in (1_000.0, 2_000.0, 3_000.0):
            at(db, x, 1_000.0, t_us=0.0)
        assert len(db.cached_items()) == 3
        at(db, 1_000.0, 1_000.0, t_us=1_500.0)  # next bucket
        assert db.stats.expirations == 3
        assert len(db.cached_items()) == 1
        # The freed capacity holds live responses without evicting.
        for x in (2_000.0, 3_000.0, 4_000.0):
            at(db, x, 1_000.0, t_us=1_500.0)
        assert len(db.cached_items()) == 4
        assert db.stats.evictions == 0

    def test_live_entries_survive_the_purge(self):
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        at(db, 1_000.0, 1_000.0, t_us=1_200.0)  # bucket 1
        at(db, 2_000.0, 1_000.0, t_us=1_500.0)  # bucket 1 too
        assert db.stats.expirations == 0
        at(db, 1_000.0, 1_000.0, t_us=1_900.0)
        assert db.stats.cache_hits == 1

    def test_register_mic_does_not_count_expired_entries(self):
        # Regression: invalidation used to scan (and drop) responses
        # from long-dead buckets, polluting stats.invalidations.
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        at(db, 1_000.0, 1_000.0, t_us=0.0)  # bucket 0
        at(db, 1_000.0, 1_000.0, t_us=5_500.0)  # bucket 5
        assert db.stats.expirations == 1
        db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 0.0, 1e9)
        )
        # Only the live bucket-5 response is invalidated.
        assert db.stats.invalidations == 1


class TestTimeAwareInvalidation:
    def test_buckets_wholly_before_the_session_are_kept(self):
        # Two live responses for the same cell in buckets 0 and 2; a
        # session starting at t=2500 can only change answers served
        # from bucket 2 on — bucket 0's window [0, 1000) ended long
        # before the mic goes live, so dropping it would only force a
        # recompute to the same answer and misreport the counter.
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        at(db, 1_000.0, 1_000.0, t_us=2_200.0)  # bucket 2 (live)
        at(db, 1_000.0, 1_000.0, t_us=100.0)  # bucket 0 (late query)
        dropped = db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 2_500.0, 5_000.0)
        )
        assert dropped == 1
        assert db.stats.invalidations == 1
        # The bucket-0 response is still served from cache.
        at(db, 1_000.0, 1_000.0, t_us=200.0)
        assert db.stats.cache_hits == 1

    def test_buckets_wholly_after_the_session_are_kept(self):
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        at(db, 1_000.0, 1_000.0, t_us=2_500.0)  # bucket 2
        dropped = db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 100.0, 900.0)
        )
        # The session lives and dies inside bucket 0: the cached
        # bucket-2 response (mic inactive throughout) is untouched.
        assert dropped == 0
        assert db.stats.invalidations == 0
        assert 5 in at(db, 1_000.0, 1_000.0, t_us=2_600.0)
        assert db.stats.cache_hits == 1

    def test_session_ending_exactly_at_bucket_start_is_kept(self):
        # Sessions are half-open [start, end): one ending exactly at a
        # bucket boundary is never active inside that bucket, so the
        # bucket's cached response must survive the registration.
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        at(db, 1_000.0, 1_000.0, t_us=2_500.0)  # bucket 2
        dropped = db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 100.0, 2_000.0)
        )
        assert dropped == 0
        assert db.stats.invalidations == 0
        at(db, 1_000.0, 1_000.0, t_us=2_600.0)
        assert db.stats.cache_hits == 1

    def test_overlapping_bucket_is_invalidated(self):
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        at(db, 1_000.0, 1_000.0, t_us=2_500.0)  # bucket 2
        dropped = db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 2_900.0, 9_000.0)
        )
        assert dropped == 1
        assert 5 not in at(db, 1_000.0, 1_000.0, t_us=2_950.0)


class TestZoneAffects:
    def test_cell_touch_beats_point_containment(self):
        # A device outside the zone whose response cell the zone clips
        # is still served the denying cell response — protocol-level
        # coverage checks must agree with what the cache serves.
        db = WhiteSpaceDatabase(one_station_metro())
        registration = MicRegistration.single_session(
            5, 5.0, 50.0, 0.0, 1e9
        )
        db.register_mic(registration)
        # (1095, 50): 1090 m from the venue (outside the 1 km zone)
        # but cell [1000, 1100) reaches back to 995 m.
        assert not registration.covers(1_095.0, 50.0)
        # The coverage the citywide displacement decides per AP cell.
        cells = np.array([db.cell_of(1_095.0, 50.0), db.cell_of(1_250.0, 50.0)])
        covered = circle_intersects_cells(
            registration.x_m, registration.y_m, registration.radius_m,
            cells[:, 0], cells[:, 1], db.cache_resolution_m,
        )
        assert covered.tolist() == [True, False]
        assert 5 not in at(db, 1_095.0, 50.0, t_us=1.0)
        # Two cells out neither the point nor the cell is touched.
        assert 5 in at(db, 1_250.0, 50.0, t_us=1.0)


class TestMicRegistration:
    def test_registration_invalidates_covered_responses_only(self):
        db = WhiteSpaceDatabase(one_station_metro())
        inside = (1_000.0, 1_000.0)
        outside = (9_000.0, 9_000.0)
        assert 5 in at(db, *inside)
        at(db, *outside)
        dropped = db.register_mic(
            MicRegistration.single_session(5, 1_200.0, 1_000.0, 0.0, 1e9)
        )
        assert dropped == 1
        assert db.stats.invalidations == 1
        assert db.stats.mic_registrations == 1
        # Fresh answer inside the zone excludes the mic channel...
        assert 5 not in at(db, *inside, t_us=10.0)
        # ...while the far response was untouched (served from cache).
        assert 5 in at(db, *outside, t_us=10.0)
        assert db.stats.cache_hits == 1

    def test_invalidation_is_cell_granular(self):
        # Regression: cached responses are shared across a whole 100 m
        # quantization square, so invalidation must drop any entry
        # whose *square* touches the zone — even when the coordinate
        # that produced it lies just outside.  Here the response is
        # produced at (1095, 50), 1090 m from the venue (outside the
        # 1 km zone), but its square also contains (1005, 50), which
        # is inside.
        db = WhiteSpaceDatabase(one_station_metro(), cache_resolution_m=100.0)
        assert 5 in at(db, 1_095.0, 50.0)
        dropped = db.register_mic(
            MicRegistration.single_session(5, 5.0, 50.0, 0.0, 1e9)
        )
        assert dropped == 1
        # The inside point shares the cached square; it must get a
        # fresh response, not the stale pre-registration one.
        assert 5 not in at(db, 1_005.0, 50.0, t_us=10.0)

    def test_inactive_session_not_protected(self):
        # TTL below the session granularity: every query sees the
        # current session state.
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=10.0)
        db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 100.0, 200.0)
        )
        assert 5 in at(db, 1_000.0, 1_000.0, t_us=50.0)
        assert 5 not in at(db, 1_000.0, 1_000.0, t_us=150.0)
        assert 5 in at(db, 1_000.0, 1_000.0, t_us=250.0)

    def test_session_edge_staleness_bounded_by_ttl(self):
        # Within one TTL bucket a cached response may lag a *session*
        # edge of an already-registered mic (the staleness the TTL
        # contract allows); explicit registrations invalidate
        # immediately, so this never applies to new incumbents.
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 100.0, 2_000.0)
        )
        assert 5 in at(db, 1_000.0, 1_000.0, t_us=50.0)
        # Same bucket: the pre-onset response is served unchanged.
        assert 5 in at(db, 1_000.0, 1_000.0, t_us=150.0)
        assert db.stats.cache_hits == 1
        # Next bucket: the edge is visible.
        assert 5 not in at(db, 1_000.0, 1_000.0, t_us=1_150.0)

    def test_mic_on_tv_channel_does_not_double_count(self):
        # The wsdb-level mirror of the IncumbentField regression: a mic
        # registered on a channel already under a TV contour changes
        # nothing in the availability summary.
        db = WhiteSpaceDatabase(one_station_metro())
        point = (5_100.0, 5_100.0)
        before = at(db, *point)
        db.register_mic(
            MicRegistration.single_session(3, 5_100.0, 5_100.0, 0.0, 1e9)
        )
        after = at(db, *point, t_us=10.0)
        assert before == after
        assert len(after) == db.metro.num_channels - 1

    def test_spectrum_map_round_trip(self):
        db = WhiteSpaceDatabase(one_station_metro())
        smap = SpectrumMap.from_free(at(db, 5_100.0, 5_100.0), 8)
        assert smap.occupied_indices() == (3,)
        assert len(smap) == 8


class TestBatchCellQueries:
    """A batch must be exactly a loop of one-cell calls."""

    def batch_cells(self):
        # Mixed hits, misses, duplicates, and an off-plane cell.
        return [(50, 50), (75, 50), (50, 50), (75, 51), (-1, -1), (50, 50)]

    def test_batch_matches_sequential_answers_and_stats(self):
        batched = WhiteSpaceDatabase(one_station_metro())
        sequential = WhiteSpaceDatabase(one_station_metro())
        cells = self.batch_cells()
        got = in_cells(batched, cells, t_us=5.0)
        want = [in_cells(sequential, [cell], 5.0)[0] for cell in cells]
        assert got == want
        assert batched.stats.as_dict() == sequential.stats.as_dict()
        assert batched.stats.queries == len(cells)
        assert batched.stats.cache_hits > 0

    def test_batch_matches_sequential_under_eviction_pressure(self):
        # A 2-slot LRU: identical eviction counters require identical
        # recency ordering, not just identical totals.
        batched = WhiteSpaceDatabase(one_station_metro(), cache_capacity=2)
        sequential = WhiteSpaceDatabase(one_station_metro(), cache_capacity=2)
        cells = self.batch_cells() + [(10, 10), (50, 50), (75, 50)]
        got = in_cells(batched, cells, t_us=5.0)
        want = [in_cells(sequential, [cell], 5.0)[0] for cell in cells]
        assert got == want
        assert batched.stats.evictions > 0
        assert batched.stats.as_dict() == sequential.stats.as_dict()
        assert [key for key, _ in batched.cached_items()] == [
            key for key, _ in sequential.cached_items()
        ]

    @staticmethod
    def two_pass_metro() -> Metro:
        metro = one_station_metro()
        metro.add_registration(
            MicRegistration.single_session(5, 2_000.0, 2_000.0, 0.0, 100.0)
        )
        return metro

    @pytest.mark.parametrize("capacity", [0, 1, 3])
    def test_two_pass_batch_equals_cell_loop(self, capacity):
        # Distinct cells exceed the capacity: (50, 50) is missed, evicted
        # and missed again inside the batch; (75, 50) and (20, 20)
        # repeat back to back (a hit on a placeholder, or at capacity 0
        # a second miss).
        cells = [
            (50, 50), (75, 50), (75, 50), (20, 20), (10, 10), (50, 50),
            (20, 20), (20, 20), (-1, -1), (50, 50), (75, 51), (50, 50),
        ]
        batched = WhiteSpaceDatabase(self.two_pass_metro(), cache_capacity=capacity)
        sequential = WhiteSpaceDatabase(self.two_pass_metro(), cache_capacity=capacity)
        got, got_outcomes = lookup(batched, cells, t_us=5.0)
        want, outcomes = [], []
        for cell in cells:
            channels, outcome = lookup(sequential, [cell], 5.0)
            want.extend(channels)
            outcomes.extend(outcome)
        assert got == want
        assert len(set(want)) >= 3
        assert batched.stats.as_dict() == sequential.stats.as_dict()
        assert got_outcomes == outcomes
        assert batched.cached_items() == sequential.cached_items()
        if capacity:
            assert batched.stats.evictions > 0
        # Some cell was missed twice.
        assert batched.stats.cache_misses > len(set(cells))

    @pytest.mark.parametrize("capacity", [0, 2])
    def test_two_pass_batch_equals_cell_loop_on_a_router(self, capacity):
        rng = random.Random(7)
        cells = [(rng.randrange(40, 60), rng.randrange(40, 60)) for _ in range(60)]
        cells += cells[:10]
        batched = ShardRouter(self.two_pass_metro(), 4, cache_capacity=capacity)
        sequential = ShardRouter(self.two_pass_metro(), 4, cache_capacity=capacity)
        got = in_cells(batched, cells, t_us=5.0)
        want = [in_cells(sequential, [cell], 5.0)[0] for cell in cells]
        assert got == want
        assert batched.per_shard_stats() == sequential.per_shard_stats()
        assert batched.stats_dict() == sequential.stats_dict()
        for shard in range(4):
            assert batched.cached_items(shard) == sequential.cached_items(shard)
        if capacity:
            assert batched.aggregate_stats().evictions > 0

    def test_batch_purges_expired_buckets_once(self):
        db = WhiteSpaceDatabase(one_station_metro())
        in_cells(db, [(50, 50), (60, 60)], t_us=0.0)
        # One TTL bucket later the old responses purge on entry.
        in_cells(db, [(50, 50)], t_us=db.ttl_us + 1.0)
        assert db.stats.expirations == 2

    def test_free_channels_rides_the_batch_path(self):
        batched = WhiteSpaceDatabase(one_station_metro())
        pointwise = WhiteSpaceDatabase(one_station_metro())
        points = [(5_050.0, 5_050.0), (5_060.0, 5_070.0), (7_520.0, 5_000.0)]
        got = free_channels(batched, points)
        want = [at(pointwise, x, y) for x, y in points]
        assert got == want
        assert batched.stats.as_dict() == pointwise.stats.as_dict()


class _Pending:
    """A reference miss's placeholder until its batch computes it."""

    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot


class OrderedDictDatabase:
    """The one-cell-at-a-time ``OrderedDict`` LRU the slot columns replaced.

    The response cache as it was before it became array-native, kept
    here (and only here) as the oracle of the differential tests: a
    key is the tuple ``(qx, qy, bucket)``, values are channel tuples,
    a batch walks the LRU cell by cell with a per-miss placeholder and
    resolves every miss in one pass of the same index kernel, and a
    registration tests every cached key one by one.
    """

    def __init__(self, metro: Metro, cell_m: float, ttl_us: float,
                 cache_resolution_m: float, cache_capacity: int):
        self.metro = metro
        self.index = GridIndex(metro.extent_m, cell_m)
        self.index.extend(metro.sites)
        self.index.extend(metro.registrations)
        self.ttl_us = ttl_us
        self.cache_resolution_m = cache_resolution_m
        self.cache_capacity = cache_capacity
        self._cache = OrderedDict()
        self._latest_bucket = 0
        self._channels = frozenset(range(metro.num_channels))
        self.stats = WsdbStats()

    @classmethod
    def like(cls, db: WhiteSpaceDatabase) -> "OrderedDictDatabase":
        return cls(db.metro, db.index.cell_m, db.ttl_us,
                   db.cache_resolution_m, db.cache_capacity)

    def cached_items(self):
        return list(self._cache.items())

    def _store(self, key, channels) -> None:
        if self.cache_capacity == 0:
            return
        self._cache[key] = channels
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)
            self.stats.evictions += 1

    def _purge_expired(self, bucket: int) -> None:
        if bucket <= self._latest_bucket:
            return
        self._latest_bucket = bucket
        stale = [key for key in self._cache if key[2] < bucket]
        for key in stale:
            del self._cache[key]
        self.stats.expirations += len(stale)

    def lookup(self, cells, t_us: float = 0.0):
        """Channel tuples and ``(cache_hit, candidates_scanned)`` per cell."""
        self.stats.queries += len(cells)
        bucket = ttl_bucket(t_us, self.ttl_us)
        self._purge_expired(bucket)
        cache = self._cache
        responses, outcomes, missed = [], [], []
        for qx, qy in cells:
            key = (qx, qy, bucket)
            channels = cache.get(key)
            if channels is not None:
                cache.move_to_end(key)
                outcomes.append((True, 0))
            else:
                channels = _Pending(len(missed))
                missed.append((key, channels))
                self._store(key, channels)
                outcomes.append(None)
            responses.append(channels)
        self.stats.cache_hits += len(cells) - len(missed)
        self.stats.cache_misses += len(missed)
        if missed:
            res = self.cache_resolution_m
            rects = []
            for (qx, qy, _), _ in missed:
                x0, y0 = qx * res, qy * res
                rects.append((x0, y0, x0 + res, y0 + res))
            occupied, scanned = self.index.occupied_in_rects(
                np.array(rects), t_us
            )
            self.stats.candidates_scanned += sum(scanned)
            answers = []
            for (key, pending), occ in zip(missed, occupied):
                free = tuple(sorted(self._channels - occ))
                answers.append(free)
                if cache.get(key) is pending:
                    cache[key] = free
            responses = [
                answers[r.slot] if type(r) is _Pending else r
                for r in responses
            ]
            scans = iter(scanned)
            outcomes = [
                (False, next(scans)) if o is None else o for o in outcomes
            ]
        return responses, outcomes

    def register_mic(self, registration: MicRegistration) -> int:
        self.metro.add_registration(registration)
        self.index.insert(registration)
        self.stats.mic_registrations += 1
        stale = []
        for key in self._cache:
            bucket_start = key[2] * self.ttl_us
            bucket_end = bucket_start + self.ttl_us
            if any(
                s.start_us < bucket_end and s.end_us > bucket_start
                for s in registration.microphone.sessions
            ) and circle_intersects_cell(
                registration.x_m, registration.y_m, registration.radius_m,
                key[0], key[1], self.cache_resolution_m,
            ):
                stale.append(key)
        for key in stale:
            del self._cache[key]
        self.stats.invalidations += len(stale)
        return len(stale)


class OrderedDictRouter:
    """K :class:`OrderedDictDatabase` shards behind the router's routing.

    The shard router as it was before its shards became segments of
    one slot table, kept here as the oracle of the router differential
    tests: shard *s* is a database of its own over the incumbents whose
    contour reaches territory *s* (the sites, then the registrations),
    at the default index edge scaled down by ``sqrt(K)``; a batch
    reaches each shard it touches as one call, in ascending shard order
    with the shard's cells in request order (which is also the order
    responses are interned in); a registration fans out to every shard
    whose territory its zone touches.  Territories and routing are the
    real router's (``shard_of_cell``, ``shards_touching_zone``).
    """

    def __init__(self, metro: Metro, num_shards: int, ttl_us: float,
                 cache_resolution_m: float, cache_capacity: int):
        self.metro = metro
        self.routing = ShardRouter(
            Metro(metro.extent_m, metro.num_channels), num_shards,
            ttl_us=ttl_us, cache_resolution_m=cache_resolution_m,
        )
        self.responses = ResponseTable()
        self.shards = []
        for territory in self.routing.territories:
            def reach(entry, territory=territory):
                return territory.touches_zone(entry.x_m, entry.y_m, entry.radius_m)

            sub = Metro(
                metro.extent_m, metro.num_channels,
                tuple(filter(reach, metro.sites)),
                list(filter(reach, metro.registrations)),
            )
            self.shards.append(OrderedDictDatabase(
                sub, default_cell_m(sub) / math.sqrt(num_shards), ttl_us,
                cache_resolution_m, cache_capacity,
            ))

    def lookup(self, cells, t_us: float):
        """Channel tuples, ``(hit, scanned)`` outcomes and response ids."""
        owners = [self.routing.shard_of_cell(*cell) for cell in cells]
        answers = [None] * len(cells)
        for shard in sorted(set(owners)):
            mine = [i for i, owner in enumerate(owners) if owner == shard]
            responses, outcomes = self.shards[shard].lookup(
                [cells[i] for i in mine], t_us
            )
            ids = self.responses.ids(responses).tolist()
            for i, answer in zip(mine, zip(responses, outcomes, ids)):
                answers[i] = answer
        return tuple(list(column) for column in zip(*answers)) or ([], [], [])

    def register_mic(self, registration: MicRegistration) -> int:
        self.metro.add_registration(registration)
        return sum(
            self.shards[shard].register_mic(registration)
            for shard in self.routing.shards_touching_zone(
                registration.x_m, registration.y_m, registration.radius_m
            )
        )

    def per_shard_stats(self):
        return tuple(shard.stats.as_dict() for shard in self.shards)


#: Cache capacities the differential tests sweep (0 disables caching).
DIFF_CAPACITIES = [0, 1, 2, 3, 7, 64]
DIFF_TTL_US = 1_000.0
DIFF_RES_M = 100.0


def diff_metro() -> Metro:
    # A 2 km plane (cells 0..19 per axis) with contour edges inside it
    # and one live mic, so answers vary from cell to cell.
    return Metro(
        extent_m=2_000.0,
        num_channels=8,
        sites=(
            TvTransmitterSite(TvStation(3, power_dbm=-8.0), 600.0, 700.0),
            TvTransmitterSite(TvStation(4, power_dbm=-5.0), 1_500.0, 1_300.0),
        ),
        registrations=[
            MicRegistration.single_session(6, 1_000.0, 400.0, 0.0, 4_000.0, 350.0)
        ],
    )


def random_mic(rng: random.Random, t_us: float, pool: list) -> MicRegistration:
    """A registration whose zone and sessions sit on the edge cases.

    Zones are tangent to an edge or corner of a hot cell (3-4-5 offsets
    make the corner distances exact) or random; sessions start or end
    exactly on TTL bucket edges, or lie wholly before or after the live
    bucket.
    """
    res, ttl = DIFF_RES_M, DIFF_TTL_US
    qx, qy = rng.choice(pool)
    scale = rng.choice([30.0, 50.0, 100.0])
    radius = 5.0 * scale
    kind = rng.randrange(4)
    if kind == 0:  # tangent to the cell's east edge
        x, y = (qx + 1) * res + radius, qy * res + rng.choice([0.0, 37.5, res])
    elif kind == 1:  # tangent to the cell's north-east corner
        x, y = (qx + 1) * res + 3.0 * scale, (qy + 1) * res + 4.0 * scale
    elif kind == 2:  # tangent to the cell's south-west corner
        x, y = qx * res - 4.0 * scale, qy * res - 3.0 * scale
    else:
        x, y = rng.uniform(-300.0, 2_300.0), rng.uniform(-300.0, 2_300.0)
        radius = rng.uniform(10.0, 600.0)
    b = int(t_us // ttl) + rng.choice([-3, -1, 0, 0, 1, 2])
    start = rng.choice([b * ttl, (b + 1) * ttl, b * ttl + rng.uniform(0.0, ttl)])
    end = start + rng.choice([ttl, 2 * ttl, rng.uniform(1.0, 3 * ttl)])
    return MicRegistration.single_session(
        rng.randrange(8), x, y, start, end, radius
    )


def random_batch(rng: random.Random, pool: list) -> list:
    """A batch with in-batch repeats, hot cells and off-plane cells."""
    batch = []
    for _ in range(rng.choice([1, 2, 3, 5, 8, 16, 40])):
        roll = rng.random()
        if batch and roll < 0.25:
            batch.append(rng.choice(batch))
        elif roll < 0.7:
            batch.append(rng.choice(pool))
        else:
            batch.append((rng.randrange(-4, 24), rng.randrange(-4, 24)))
    return batch


def random_ops(rng: random.Random, count: int):
    """Seeded operations: ("query", cells, t_us) or ("mic", registration).

    Time mostly advances inside a bucket or across one edge, and now
    and then jumps back into an older bucket.
    """
    pool = [(rng.randrange(-2, 21), rng.randrange(-2, 21)) for _ in range(6)]
    t_us = rng.uniform(0.0, 3 * DIFF_TTL_US)
    for _ in range(count):
        roll = rng.random()
        if roll < 0.15:
            yield ("mic", random_mic(rng, t_us, pool))
            continue
        if roll < 0.25:
            t_us += rng.choice([DIFF_TTL_US, DIFF_TTL_US * rng.uniform(0.1, 1.0)])
        elif roll < 0.3:
            t_us = max(0.0, t_us - rng.choice([1, 2, 5]) * DIFF_TTL_US)
        yield ("query", random_batch(rng, pool), t_us)


class TestDifferentialAgainstOrderedDict:
    """Seeded operation sequences: slot columns vs the OrderedDict LRU.

    After every operation the answers, the per-cell ``(hit, scanned)``
    outcomes, ``stats.as_dict()`` and the LRU contents in recency order
    must match.
    """

    @pytest.mark.parametrize("capacity", DIFF_CAPACITIES)
    def test_database(self, capacity):
        varied = set()
        for seed in range(12):
            db = WhiteSpaceDatabase(
                diff_metro(), ttl_us=DIFF_TTL_US,
                cache_resolution_m=DIFF_RES_M, cache_capacity=capacity,
            )
            ref = OrderedDictDatabase.like(
                WhiteSpaceDatabase(
                    diff_metro(), ttl_us=DIFF_TTL_US,
                    cache_resolution_m=DIFF_RES_M, cache_capacity=capacity,
                )
            )
            rng = random.Random(f"diff-{capacity}-{seed}")
            for step, op in enumerate(random_ops(rng, 60)):
                if op[0] == "mic":
                    assert db.register_mic(op[1]) == ref.register_mic(op[1]), step
                else:
                    _, cells, t_us = op
                    got = lookup(db, cells, t_us)
                    assert got == ref.lookup(cells, t_us), step
                    varied.update(got[0])
                assert db.stats.as_dict() == ref.stats.as_dict(), step
                assert db.cached_items() == ref.cached_items(), step
        assert len(varied) >= 4

    @pytest.mark.parametrize("capacity", DIFF_CAPACITIES)
    def test_router(self, capacity):
        for seed in range(6):
            rng = random.Random(f"diff-router-{capacity}-{seed}")
            check_router(capacity, random_ops(rng, 60))


def check_router(capacity: int, ops, num_shards: int = 4):
    """Run *ops* on a ShardRouter and on the oracle; after every one the
    answers, outcomes, response ids, per-shard stats and per-shard LRU
    contents in recency order must match.  Returns the router."""
    params = dict(
        ttl_us=DIFF_TTL_US, cache_resolution_m=DIFF_RES_M,
        cache_capacity=capacity,
    )
    router = ShardRouter(diff_metro(), num_shards, **params)
    ref = OrderedDictRouter(diff_metro(), num_shards, **params)
    for step, op in enumerate(ops):
        if op[0] == "mic":
            assert router.register_mic(op[1]) == ref.register_mic(op[1]), step
        else:
            _, cells, t_us = op
            ids, hit, scanned, segment = router.response_ids_in_cells(
                np.array(cells, dtype=np.int64).reshape(-1, 2), t_us
            )
            responses, outcomes, want_ids = ref.lookup(cells, t_us)
            assert segment.tolist() == [
                ref.routing.shard_of_cell(*cell) for cell in cells
            ], step
            assert [router.responses.tuples[i] for i in ids] == responses, step
            assert list(zip(hit.tolist(), scanned.tolist())) == outcomes, step
            assert ids.tolist() == want_ids, step
            assert router.responses.tuples == ref.responses.tuples, step
        assert router.per_shard_stats() == ref.per_shard_stats(), step
        for shard, ref_shard in enumerate(ref.shards):
            assert router.cached_items(shard) == ref_shard.cached_items(), step
    return router


class TestRouterSegmentEdges:
    """Constructed router cases at the edges of the segmented table.

    On the 2 km differential metro at 100 m cells and four shards the
    territories are the quadrants of cells ``0..9`` and ``10..19`` per
    axis: shard 0 south-west, 1 south-east, 2 north-west, 3 north-east.
    """

    def test_untouched_shard_expires_at_its_own_next_query(self):
        ttl = DIFF_TTL_US
        ops = [("query", [(2, 2), (3, 3), (15, 2), (2, 15)], 10.0)]
        # Three buckets of queries that never reach shard 0.
        ops += [("query", [(15, 2), (15, 15)], k * ttl + 10.0) for k in (1, 2, 3)]
        ops += [("query", [(2, 2)], 3 * ttl + 20.0)]
        router = check_router(8, ops)
        stats = router.per_shard_stats()
        # Shard 0's two responses expired at its own query, not before;
        # shard 2, never queried again, still holds its dead response.
        assert stats[0]["expirations"] == 2
        assert stats[2]["expirations"] == 0
        assert len(router.cached_items(2)) == 1

    @pytest.mark.parametrize("capacity", [1, 2])
    def test_one_segment_evicts_inside_a_batch(self, capacity):
        west, east = [(1, 1), (2, 1), (3, 1), (1, 1), (4, 2)], [(15, 1), (15, 1)]
        batch = [west[0], east[0], *west[1:3], east[1], *west[3:]]
        router = check_router(capacity, [
            ("query", [(12, 12)], 5.0),
            ("query", batch, 5.0),
            ("query", batch[::-1], 5.0),
        ])
        stats = router.per_shard_stats()
        assert stats[0]["evictions"] > 0
        assert stats[1]["evictions"] == stats[3]["evictions"] == 0

    def test_one_shard_and_empty_batches(self):
        router = check_router(3, [
            ("query", [], 5.0),
            ("query", [(12, 12), (13, 12), (12, 12)], 5.0),
            ("query", [], 5.0),
            ("query", [(12, 13), (13, 12)], DIFF_TTL_US + 5.0),
            ("query", [], 3 * DIFF_TTL_US),
        ])
        assert router.shard_calls == 2
        assert sum(s["queries"] for s in router.per_shard_stats()) == 5

    def test_off_plane_cells_route_to_border_shards(self):
        cells = [(-3, -1), (25, -2), (-4, 30), (40, 41), (-1, 12), (20, 5)]
        router = check_router(2, [
            ("query", cells, 5.0),
            ("query", cells[::-1] + cells, 6.0),
        ])
        assert all(s["queries"] for s in router.per_shard_stats())

    def test_mic_touching_three_of_four_shards(self):
        # A 120 m zone centred 100 m south and west of the plane's
        # middle: it crosses both seams (100 m away) into the south-east
        # and north-west quadrants, but not the corner (141 m away)
        # into the north-east one.
        mic = MicRegistration.single_session(5, 900.0, 900.0, 0.0, 5_000.0, 120.0)
        warm = [(9, 9), (10, 9), (9, 10), (10, 10), (8, 8), (11, 11)]
        router = check_router(8, [
            ("query", warm, 5.0),
            ("mic", mic),
            ("query", warm, 6.0),
        ])
        stats = router.per_shard_stats()
        assert [s["mic_registrations"] for s in stats] == [1, 1, 1, 0]
        assert [s["invalidations"] for s in stats[:3]] == [2, 1, 1]
        assert stats[3]["invalidations"] == 0
        assert router.stats_dict()["registration_fanout"] == 3


class TestOneSegmentParity:
    """A 1-shard router and a database run one code path."""

    @pytest.mark.parametrize("capacity", DIFF_CAPACITIES)
    def test_one_shard_router_equals_the_database(self, capacity):
        params = dict(
            ttl_us=DIFF_TTL_US, cache_resolution_m=DIFF_RES_M,
            cache_capacity=capacity,
        )
        for seed in range(4):
            router = ShardRouter(diff_metro(), 1, **params)
            db = WhiteSpaceDatabase(diff_metro(), **params)
            rng = random.Random(f"one-segment-{capacity}-{seed}")
            for step, op in enumerate(random_ops(rng, 60)):
                if op[0] == "mic":
                    assert router.register_mic(op[1]) == db.register_mic(op[1])
                else:
                    _, cells, t_us = op
                    got = router.response_ids_in_cells(
                        np.array(cells, dtype=np.int64).reshape(-1, 2), t_us
                    )
                    want = db.response_ids_in_cells(
                        np.array(cells, dtype=np.int64).reshape(-1, 2), t_us
                    )
                    for a, b in zip(got, want):
                        assert a.tolist() == b.tolist(), step
                assert router.per_shard_stats() == (db.stats.as_dict(),), step
                assert router.cached_items(0) == db.cached_items(), step
                assert router.responses.tuples == db.responses.tuples, step


class TestPackableRange:
    """Cache keys pack each cell axis into 26 bits; outside raises."""

    def test_edges_of_the_range_are_served(self):
        lo, hi = PACKABLE_CELLS
        db = WhiteSpaceDatabase(one_station_metro())
        ref = WhiteSpaceDatabase(one_station_metro(), cache_capacity=0)
        cells = [(lo, lo), (hi - 1, hi - 1), (lo, hi - 1), (0, 0), (lo, lo)]
        assert in_cells(db, cells) == in_cells(ref, cells)
        assert db.stats.cache_hits == 1

    @pytest.mark.parametrize(
        "cell",
        [(PACKABLE_CELLS[1], 0), (0, PACKABLE_CELLS[0] - 1), (-(2**40), 5)],
    )
    def test_cell_outside_the_range_raises_before_anything_moves(self, cell):
        db = WhiteSpaceDatabase(one_station_metro())
        in_cells(db, [(1, 1)])
        before = (db.stats.as_dict(), db.cached_items())
        with pytest.raises(SpectrumMapError, match="packable range"):
            in_cells(db, [(2, 2), cell])
        assert (db.stats.as_dict(), db.cached_items()) == before

    def test_bucket_too_far_behind_the_newest_raises(self):
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1.0)
        in_cells(db, [(1, 1)], t_us=5_000.0)
        in_cells(db, [(1, 1)], t_us=5_000.0 - 2_047)
        with pytest.raises(SpectrumMapError, match="behind the newest"):
            in_cells(db, [(1, 1)], t_us=5_000.0 - 2_048)
