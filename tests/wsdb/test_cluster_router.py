"""Tests for the ShardRouter: cell-aligned partition, routing
determinism, response equality with the unsharded database, mic
fan-out, and the per-query candidate-scan reduction sharding buys."""

import random

import numpy as np
import pytest

from repro.errors import SpectrumMapError
from repro.wsdb.cluster.router import ShardRouter, shard_grid
from repro.wsdb.model import (
    Metro,
    MicRegistration,
    generate_metro,
)
from repro.wsdb.service import WhiteSpaceDatabase, free_channels


def lookup(service, cells, t_us=0.0):
    """The query primitive on ``(qx, qy)`` pairs: each cell's channel
    tuple and ``(cache_hit, candidates_scanned)`` outcome."""
    ids, hit, scanned, _ = service.response_ids_in_cells(
        np.array(cells, dtype=np.int64).reshape(-1, 2), t_us
    )
    tuples = service.responses.tuples
    return (
        [tuples[i] for i in ids.tolist()],
        list(zip(hit.tolist(), scanned.tolist())),
    )


def cell_loop(service, cells, t_us=0.0):
    """:func:`lookup` one cell per call, concatenated."""
    channels, outcomes = [], []
    for cell in cells:
        c, o = lookup(service, [cell], t_us)
        channels += c
        outcomes += o
    return channels, outcomes


def spread_metro(seed: int = 42, extent_m: float = 20_000.0) -> Metro:
    # 30 channels x 4 low-EIRP sites: ~1.8-3.5 km contours over a
    # 20 km plane — genuinely partial coverage, the regime sharding
    # (and the spatial index generally) exists for.
    return generate_metro(
        range(30),
        extent_m=extent_m,
        seed=seed,
        sites_per_channel=(4, 4),
        eirp_range_dbm=(-5.0, 5.0),
    )


class TestShardGrid:
    def test_square_counts_tile_squares(self):
        assert shard_grid(1) == (1, 1)
        assert shard_grid(4) == (2, 2)
        assert shard_grid(16) == (4, 4)

    def test_awkward_counts_stay_exact(self):
        for k in (2, 3, 6, 7, 12, 30):
            cols, rows = shard_grid(k)
            assert cols * rows == k
            assert cols <= rows

    def test_invalid_count_raises(self):
        with pytest.raises(SpectrumMapError):
            shard_grid(0)
        with pytest.raises(SpectrumMapError):
            ShardRouter(spread_metro(), num_shards=0)


class TestPartition:
    def test_boundaries_are_cell_aligned_and_cover_the_plane(self):
        router = ShardRouter(
            spread_metro(), num_shards=6, cache_resolution_m=100.0
        )
        cols, rows = router.grid
        assert cols * rows == 6
        # Every on-plane cell belongs to exactly one territory, and
        # territory cell ranges tile [0, cells_per_side) per axis.
        xs = sorted(
            {(t.cell_x0, t.cell_x1) for t in router.territories}
        )
        assert xs[0][0] == 0
        assert xs[-1][1] == router.cells_per_side
        for (_, hi), (lo, _) in zip(xs, xs[1:]):
            assert hi == lo

    def test_routing_matches_territory_membership(self):
        router = ShardRouter(
            spread_metro(), num_shards=9, cache_resolution_m=250.0
        )
        rng = random.Random(5)
        for _ in range(300):
            x = rng.uniform(0.0, router.metro.extent_m)
            y = rng.uniform(0.0, router.metro.extent_m)
            shard_id = router.shard_of(x, y)
            territory = router.territories[shard_id]
            qx, qy = router.cell_of(x, y)
            assert territory.cell_x0 <= qx < territory.cell_x1
            assert territory.cell_y0 <= qy < territory.cell_y1

    def test_offplane_coordinates_route_to_border_shards(self):
        router = ShardRouter(spread_metro(), num_shards=4)
        assert router.shard_of(-500.0, -500.0) == 0
        last = router.num_shards - 1
        extent = router.metro.extent_m
        assert router.shard_of(extent + 500.0, extent + 500.0) == last

    def test_too_many_shards_for_the_cell_grid_raises(self):
        metro = Metro(extent_m=1_000.0, num_channels=5)
        with pytest.raises(SpectrumMapError):
            # 2 cells per axis cannot host a 3x3 grid.
            ShardRouter(metro, num_shards=9, cache_resolution_m=500.0)


class TestResponseEquality:
    """Sharding must never change a response — the acceptance bar."""

    def test_sharded_equals_unsharded_everywhere(self):
        single = WhiteSpaceDatabase(spread_metro())
        rng = random.Random(11)
        extent = single.metro.extent_m
        # Include off-plane and negative coordinates: border
        # territories extend outward, so clamped routing stays exact.
        points = [
            (
                rng.uniform(-0.2 * extent, 1.2 * extent),
                rng.uniform(-0.2 * extent, 1.2 * extent),
            )
            for _ in range(600)
        ]
        expected = free_channels(single, points, t_us=3.0)
        for num_shards in (1, 3, 4, 16):
            router = ShardRouter(spread_metro(), num_shards=num_shards)
            assert free_channels(router, points, t_us=3.0) == expected

    def test_equality_holds_across_mic_registrations(self):
        single = WhiteSpaceDatabase(spread_metro())
        router = ShardRouter(spread_metro(), num_shards=4)
        rng = random.Random(23)
        extent = single.metro.extent_m
        regs = [
            MicRegistration.single_session(
                rng.randrange(30),
                rng.uniform(0.0, extent),
                rng.uniform(0.0, extent),
                0.0,
                120e6,
            )
            for _ in range(6)
        ]
        points = [
            (rng.uniform(0.0, extent), rng.uniform(0.0, extent))
            for _ in range(200)
        ]
        for reg in regs:
            single.register_mic(reg)
            router.register_mic(reg)
        assert free_channels(router, points, 60e6) == free_channels(
            single, points, 60e6
        )


class TestMicFanOut:
    def test_registration_reaches_only_touched_shards(self):
        router = ShardRouter(spread_metro(), num_shards=16)
        # A small zone deep inside one territory touches exactly one
        # shard; the base metro records it for ground truth either way.
        reg = MicRegistration.single_session(
            3, 2_500.0, 2_500.0, 0.0, 60e6, radius_m=200.0
        )
        before = len(router.metro.registrations)
        router.register_mic(reg)
        assert len(router.metro.registrations) == before + 1
        assert router.mic_registrations == 1
        touched = [
            shard["mic_registrations"] for shard in router.per_shard_stats()
        ]
        assert sum(touched) == 1
        owner = router.shard_of(2_500.0, 2_500.0)
        assert touched[owner] == 1

    def test_boundary_zone_fans_out_to_every_touched_shard(self):
        router = ShardRouter(spread_metro(), num_shards=4)
        mid = router.metro.extent_m / 2
        reg = MicRegistration.single_session(
            3, mid, mid, 0.0, 60e6, radius_m=1_000.0
        )
        router.register_mic(reg)
        assert router.stats_dict()["registration_fanout"] == 4
        assert router.stats_dict()["mic_registrations"] == 1

    def test_invalidations_aggregate_across_shards(self):
        router = ShardRouter(spread_metro(), num_shards=4)
        mid = router.metro.extent_m / 2
        # Warm caches in all four shards around the center seam.
        for dx in (-150.0, 150.0):
            for dy in (-150.0, 150.0):
                free_channels(router, [(mid + dx, mid + dy)], 1.0)
        dropped = router.register_mic(
            MicRegistration.single_session(
                3, mid, mid, 0.0, 60e6, radius_m=1_000.0
            )
        )
        assert dropped == 4
        assert router.aggregate_stats().invalidations == 4


class TestShardingWin:
    def test_candidates_per_query_decreases_with_shards(self):
        rng = random.Random(3)
        extent = 20_000.0
        points = [
            (rng.uniform(0.0, extent), rng.uniform(0.0, extent))
            for _ in range(1_500)
        ]
        scanned = []
        for num_shards in (1, 4, 16):
            router = ShardRouter(spread_metro(), num_shards=num_shards)
            free_channels(router, points, 0.0)
            stats = router.aggregate_stats()
            assert stats.queries == len(points)
            scanned.append(stats.candidates_scanned / stats.queries)
        assert scanned[0] > scanned[1] > scanned[2]

    def test_one_shard_matches_the_plain_database_index_exactly(self):
        # K=1 defaults to the service's own index granularity: same
        # counters, same answers — the router degenerates cleanly.
        single = WhiteSpaceDatabase(spread_metro())
        router = ShardRouter(spread_metro(), num_shards=1)
        rng = random.Random(9)
        points = [
            (rng.uniform(0.0, 20_000.0), rng.uniform(0.0, 20_000.0))
            for _ in range(400)
        ]
        assert free_channels(router, points) == free_channels(single, points)
        assert (
            router.aggregate_stats().candidates_scanned
            == single.stats.candidates_scanned
        )

    def test_per_shard_stats_sum_to_aggregate(self):
        router = ShardRouter(spread_metro(), num_shards=4)
        rng = random.Random(13)
        free_channels(
            router,
            [
                (rng.uniform(0.0, 20_000.0), rng.uniform(0.0, 20_000.0))
                for _ in range(200)
            ],
        )
        per_shard = router.per_shard_stats()
        total = router.aggregate_stats()
        assert sum(s["queries"] for s in per_shard) == total.queries == 200
        assert (
            sum(s["candidates_scanned"] for s in per_shard)
            == total.candidates_scanned
        )


class TestBatchCellRouting:
    """Router batches: one call per shard, loop-exact stats."""

    def test_batch_matches_sequential_per_shard(self):
        batched = ShardRouter(spread_metro(), num_shards=4)
        sequential = ShardRouter(spread_metro(), num_shards=4)
        # Cells hopping between shards force several single-cell runs;
        # repeats within and across runs exercise the caches.
        cells = [
            (10, 10), (11, 10), (150, 150), (10, 10), (150, 150),
            (11, 10), (150, 151), (10, 11), (10, 10),
        ]
        got = lookup(batched, cells, t_us=2.0)
        assert got == cell_loop(sequential, cells, 2.0)
        # Per-shard stats (not just the aggregate) must match the
        # sequential loop's: each shard sees its cells in order.
        assert batched.per_shard_stats() == sequential.per_shard_stats()
        assert batched.stats_dict() == sequential.stats_dict()

    @pytest.mark.parametrize("capacity", [8_192, 5])
    def test_scattered_cells_make_one_call_per_shard(self, capacity):
        # 512 seeded points scattered over the 3 km, 16-shard storm
        # metro: the batch groups each shard's cells (request order
        # kept), counts one shard call per shard it touches, and
        # answers every miss in one kernel call.
        def storm_router():
            metro = generate_metro(
                range(12, 30), seed=2009, extent_m=3_000.0,
                sites_per_channel=(1, 1),
            )
            return ShardRouter(metro, 16, cache_capacity=capacity)

        batched, sequential = storm_router(), storm_router()
        kernel = []

        def counted(rects, t_us, segments=None, _inner=batched.index.occupied_masks):
            kernel.append(len(rects))
            return _inner(rects, t_us, segments)

        batched.index.occupied_masks = counted
        rng = random.Random(512)
        points = [
            (rng.uniform(-50.0, 3_050.0), rng.uniform(-50.0, 3_050.0))
            for _ in range(512)
        ]
        cells = [batched.cell_of(x, y) for x, y in points]
        got = free_channels(batched, points, t_us=3.0)
        assert got == cell_loop(sequential, cells, 3.0)[0]
        owners = {batched.shard_of_cell(*cell) for cell in cells}
        assert batched.shard_calls == len(owners) <= 16
        assert kernel == [batched.aggregate_stats().cache_misses]
        assert batched.per_shard_stats() == sequential.per_shard_stats()
        for shard in range(16):
            assert batched.cached_items(shard) == sequential.cached_items(shard)
        if capacity == 5:
            assert batched.aggregate_stats().evictions > 0
