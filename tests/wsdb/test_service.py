"""Tests for the WhiteSpaceDatabase façade: cell-granular responses,
caching, TTL-bucket expiry, and time-aware invalidation."""

import pytest

from repro.errors import SpectrumMapError
from repro.spectrum.incumbents import TvStation
from repro.wsdb.model import Metro, MicRegistration, TvTransmitterSite
from repro.wsdb.service import WhiteSpaceDatabase


def one_station_metro() -> Metro:
    # A ~2511.9 m contour on channel 3 in the middle of a 10 km plane.
    return Metro(
        extent_m=10_000.0,
        num_channels=8,
        sites=(TvTransmitterSite(TvStation(3, power_dbm=5.0), 5_000.0, 5_000.0),),
    )


class TestCellGranularResponses:
    def test_response_covers_the_whole_cell_conservatively(self):
        # The contour edge sits at x ~= 7511.9.  (7520, 5000) is outside
        # the contour itself, but its 100 m cell [7500, 7600) reaches
        # back to x=7500, inside the contour — the area response denies
        # the channel anywhere a contour clips the cell.
        db = WhiteSpaceDatabase(one_station_metro())
        assert 3 not in db.metro.occupied_at(7_520.0, 5_000.0)
        assert 3 not in db.channels_at(7_520.0, 5_000.0)
        # One cell further out the contour no longer touches: free.
        assert 3 in db.channels_at(7_620.0, 5_000.0)

    def test_channels_at_rides_channels_in_cell(self):
        db = WhiteSpaceDatabase(one_station_metro())
        direct = db.channels_in_cell(*db.cell_of(5_110.0, 5_150.0))
        assert db.channels_at(5_105.0, 5_177.0) == direct
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
            assert cached.channels_at_many(points) == uncached.channels_at_many(
                points
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
        db.channels_at(-50.0, -50.0)
        db.channels_at(-1.0, -99.0)  # same negative cell: a hit
        assert db.stats.cache_hits == 1
        db.channels_at(50.0, 50.0)  # across the origin: a different slot
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
        assert 5 not in db.channels_at(extent - 10.0, extent - 10.0, t_us=1.0)
        assert 5 not in db.channels_at(extent, extent, t_us=1.0)
        assert 5 in db.channels_at(10.0, 10.0, t_us=1.0)


class TestResponseCache:
    def test_repeat_query_hits(self):
        db = WhiteSpaceDatabase(one_station_metro())
        first = db.channels_at(5_100.0, 5_100.0, t_us=0.0)
        second = db.channels_at(5_100.0, 5_100.0, t_us=1.0)
        assert first == second
        assert 3 not in first
        assert db.stats.queries == 2
        assert db.stats.cache_hits == 1
        assert db.stats.cache_misses == 1

    def test_nearby_points_share_a_quantized_response(self):
        db = WhiteSpaceDatabase(one_station_metro(), cache_resolution_m=100.0)
        db.channels_at(5_110.0, 5_110.0)
        db.channels_at(5_190.0, 5_190.0)  # same 100 m square
        assert db.stats.cache_hits == 1

    def test_ttl_bucket_expires_responses(self):
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        db.channels_at(5_100.0, 5_100.0, t_us=0.0)
        db.channels_at(5_100.0, 5_100.0, t_us=1_500.0)  # next bucket
        assert db.stats.cache_hits == 0
        assert db.stats.cache_misses == 2

    def test_lru_eviction(self):
        db = WhiteSpaceDatabase(one_station_metro(), cache_capacity=2)
        for x in (1_000.0, 2_000.0, 3_000.0):
            db.channels_at(x, 1_000.0)
        assert db.stats.evictions == 1
        # The oldest entry was evicted: re-querying it misses.
        db.channels_at(1_000.0, 1_000.0)
        assert db.stats.cache_misses == 4

    def test_capacity_zero_disables_caching(self):
        db = WhiteSpaceDatabase(one_station_metro(), cache_capacity=0)
        db.channels_at(5_100.0, 5_100.0)
        db.channels_at(5_100.0, 5_100.0)
        assert db.stats.cache_hits == 0
        assert db.stats.cache_misses == 2

    def test_caching_never_changes_availability(self):
        cached = WhiteSpaceDatabase(one_station_metro())
        uncached = WhiteSpaceDatabase(one_station_metro(), cache_capacity=0)
        points = [(x, y) for x in range(0, 10_000, 500) for y in (4_000.0, 5_000.0)]
        assert cached.channels_at_many(points) == uncached.channels_at_many(points)
        assert cached.channels_at_many(points) == uncached.channels_at_many(points)
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
            db.channels_at(x, 1_000.0, t_us=0.0)
        assert len(db._cache) == 3
        db.channels_at(1_000.0, 1_000.0, t_us=1_500.0)  # next bucket
        assert db.stats.expirations == 3
        assert len(db._cache) == 1
        # The freed capacity holds live responses without evicting.
        for x in (2_000.0, 3_000.0, 4_000.0):
            db.channels_at(x, 1_000.0, t_us=1_500.0)
        assert len(db._cache) == 4
        assert db.stats.evictions == 0

    def test_live_entries_survive_the_purge(self):
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        db.channels_at(1_000.0, 1_000.0, t_us=1_200.0)  # bucket 1
        db.channels_at(2_000.0, 1_000.0, t_us=1_500.0)  # bucket 1 too
        assert db.stats.expirations == 0
        db.channels_at(1_000.0, 1_000.0, t_us=1_900.0)
        assert db.stats.cache_hits == 1

    def test_register_mic_does_not_count_expired_entries(self):
        # Regression: invalidation used to scan (and drop) responses
        # from long-dead buckets, polluting stats.invalidations.
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        db.channels_at(1_000.0, 1_000.0, t_us=0.0)  # bucket 0
        db.channels_at(1_000.0, 1_000.0, t_us=5_500.0)  # bucket 5
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
        db.channels_at(1_000.0, 1_000.0, t_us=2_200.0)  # bucket 2 (live)
        db.channels_at(1_000.0, 1_000.0, t_us=100.0)  # bucket 0 (late query)
        dropped = db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 2_500.0, 5_000.0)
        )
        assert dropped == 1
        assert db.stats.invalidations == 1
        # The bucket-0 response is still served from cache.
        db.channels_at(1_000.0, 1_000.0, t_us=200.0)
        assert db.stats.cache_hits == 1

    def test_buckets_wholly_after_the_session_are_kept(self):
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        db.channels_at(1_000.0, 1_000.0, t_us=2_500.0)  # bucket 2
        dropped = db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 100.0, 900.0)
        )
        # The session lives and dies inside bucket 0: the cached
        # bucket-2 response (mic inactive throughout) is untouched.
        assert dropped == 0
        assert db.stats.invalidations == 0
        assert 5 in db.channels_at(1_000.0, 1_000.0, t_us=2_600.0)
        assert db.stats.cache_hits == 1

    def test_session_ending_exactly_at_bucket_start_is_kept(self):
        # Sessions are half-open [start, end): one ending exactly at a
        # bucket boundary is never active inside that bucket, so the
        # bucket's cached response must survive the registration.
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        db.channels_at(1_000.0, 1_000.0, t_us=2_500.0)  # bucket 2
        dropped = db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 100.0, 2_000.0)
        )
        assert dropped == 0
        assert db.stats.invalidations == 0
        db.channels_at(1_000.0, 1_000.0, t_us=2_600.0)
        assert db.stats.cache_hits == 1

    def test_overlapping_bucket_is_invalidated(self):
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        db.channels_at(1_000.0, 1_000.0, t_us=2_500.0)  # bucket 2
        dropped = db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 2_900.0, 9_000.0)
        )
        assert dropped == 1
        assert 5 not in db.channels_at(1_000.0, 1_000.0, t_us=2_950.0)


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
        assert db.zone_affects(registration, 1_095.0, 50.0)
        assert 5 not in db.channels_at(1_095.0, 50.0, t_us=1.0)
        # Two cells out neither the point nor the cell is touched.
        assert not db.zone_affects(registration, 1_250.0, 50.0)
        assert 5 in db.channels_at(1_250.0, 50.0, t_us=1.0)


class TestMicRegistration:
    def test_registration_invalidates_covered_responses_only(self):
        db = WhiteSpaceDatabase(one_station_metro())
        inside = (1_000.0, 1_000.0)
        outside = (9_000.0, 9_000.0)
        assert 5 in db.channels_at(*inside)
        db.channels_at(*outside)
        dropped = db.register_mic(
            MicRegistration.single_session(5, 1_200.0, 1_000.0, 0.0, 1e9)
        )
        assert dropped == 1
        assert db.stats.invalidations == 1
        assert db.stats.mic_registrations == 1
        # Fresh answer inside the zone excludes the mic channel...
        assert 5 not in db.channels_at(*inside, t_us=10.0)
        # ...while the far response was untouched (served from cache).
        assert 5 in db.channels_at(*outside, t_us=10.0)
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
        assert 5 in db.channels_at(1_095.0, 50.0)
        dropped = db.register_mic(
            MicRegistration.single_session(5, 5.0, 50.0, 0.0, 1e9)
        )
        assert dropped == 1
        # The inside point shares the cached square; it must get a
        # fresh response, not the stale pre-registration one.
        assert 5 not in db.channels_at(1_005.0, 50.0, t_us=10.0)

    def test_inactive_session_not_protected(self):
        # TTL below the session granularity: every query sees the
        # current session state.
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=10.0)
        db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 100.0, 200.0)
        )
        assert 5 in db.channels_at(1_000.0, 1_000.0, t_us=50.0)
        assert 5 not in db.channels_at(1_000.0, 1_000.0, t_us=150.0)
        assert 5 in db.channels_at(1_000.0, 1_000.0, t_us=250.0)

    def test_session_edge_staleness_bounded_by_ttl(self):
        # Within one TTL bucket a cached response may lag a *session*
        # edge of an already-registered mic (the staleness the TTL
        # contract allows); explicit registrations invalidate
        # immediately, so this never applies to new incumbents.
        db = WhiteSpaceDatabase(one_station_metro(), ttl_us=1_000.0)
        db.register_mic(
            MicRegistration.single_session(5, 1_000.0, 1_000.0, 100.0, 2_000.0)
        )
        assert 5 in db.channels_at(1_000.0, 1_000.0, t_us=50.0)
        # Same bucket: the pre-onset response is served unchanged.
        assert 5 in db.channels_at(1_000.0, 1_000.0, t_us=150.0)
        assert db.stats.cache_hits == 1
        # Next bucket: the edge is visible.
        assert 5 not in db.channels_at(1_000.0, 1_000.0, t_us=1_150.0)

    def test_mic_on_tv_channel_does_not_double_count(self):
        # The wsdb-level mirror of the IncumbentField regression: a mic
        # registered on a channel already under a TV contour changes
        # nothing in the availability summary.
        db = WhiteSpaceDatabase(one_station_metro())
        point = (5_100.0, 5_100.0)
        before = db.channels_at(*point)
        db.register_mic(
            MicRegistration.single_session(3, 5_100.0, 5_100.0, 0.0, 1e9)
        )
        after = db.channels_at(*point, t_us=10.0)
        assert before == after
        assert len(after) == db.metro.num_channels - 1

    def test_spectrum_map_round_trip(self):
        db = WhiteSpaceDatabase(one_station_metro())
        smap = db.spectrum_map_at(5_100.0, 5_100.0)
        assert smap.occupied_indices() == (3,)
        assert len(smap) == 8


class TestBatchCellQueries:
    """channels_in_cells must be exactly a channels_in_cell loop."""

    def batch_cells(self):
        # Mixed hits, misses, duplicates, and an off-plane cell.
        return [(50, 50), (75, 50), (50, 50), (75, 51), (-1, -1), (50, 50)]

    def test_batch_matches_sequential_answers_and_stats(self):
        batched = WhiteSpaceDatabase(one_station_metro())
        sequential = WhiteSpaceDatabase(one_station_metro())
        cells = self.batch_cells()
        got = batched.channels_in_cells(cells, t_us=5.0)
        want = [sequential.channels_in_cell(qx, qy, 5.0) for qx, qy in cells]
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
        got = batched.channels_in_cells(cells, t_us=5.0)
        want = [sequential.channels_in_cell(qx, qy, 5.0) for qx, qy in cells]
        assert got == want
        assert batched.stats.evictions > 0
        assert batched.stats.as_dict() == sequential.stats.as_dict()
        assert list(batched._cache) == list(sequential._cache)

    def test_batch_purges_expired_buckets_once(self):
        db = WhiteSpaceDatabase(one_station_metro())
        db.channels_in_cells([(50, 50), (60, 60)], t_us=0.0)
        # One TTL bucket later the old responses purge on entry.
        db.channels_in_cells([(50, 50)], t_us=db.ttl_us + 1.0)
        assert db.stats.expirations == 2

    def test_channels_at_many_rides_the_batch_path(self):
        batched = WhiteSpaceDatabase(one_station_metro())
        pointwise = WhiteSpaceDatabase(one_station_metro())
        points = [(5_050.0, 5_050.0), (5_060.0, 5_070.0), (7_520.0, 5_000.0)]
        got = batched.channels_at_many(points)
        want = [pointwise.channels_at(x, y) for x, y in points]
        assert got == want
        assert batched.stats.as_dict() == pointwise.stats.as_dict()
