"""Tests for the uniform-grid spatial index, including the 10k-point
batch-query proof required of the wsdb subsystem: availability over a
dense query grid must come off the index (candidates inspected far below
the full-scan count) while agreeing exactly with the reference linear
scan, deterministically per seed."""

import math
import random

import numpy as np
import pytest

from repro.errors import SpectrumMapError
from repro.spectrum.incumbents import MicSession, TvStation, WirelessMicrophone
from repro.wsdb.index import (
    GridIndex,
    circle_intersects_cell,
    circle_intersects_cells,
    circle_intersects_rect,
)
from repro.wsdb.model import (
    Metro,
    MicRegistration,
    TvTransmitterSite,
    generate_metro,
)
from repro.wsdb.service import WhiteSpaceDatabase, free_channels


def small_site(uhf_index: int, x_m: float, y_m: float) -> TvTransmitterSite:
    # EIRP 5 dBm -> ~2.5 km protected contour under the default model.
    return TvTransmitterSite(TvStation(uhf_index, power_dbm=5.0), x_m, y_m)


class TestGridMechanics:
    def test_cell_of_clamps_to_plane(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        assert index.cell_of(-5.0, 500.0) == (0, 0)
        assert index.cell_of(99_999.0, 9_999.0) == (9, 9)

    def test_insert_buckets_bbox_cells(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        index.insert(small_site(0, 5_000.0, 5_000.0))
        assert len(index) == 1
        # Inside the contour: candidate present.
        assert len(index.candidates(5_500.0, 5_500.0)) == 1
        # Far corner: bucket untouched.
        assert len(index.candidates(500.0, 500.0)) == 0

    def test_covering_filters_bbox_false_positives(self):
        index = GridIndex(extent_m=10_000.0, cell_m=5_000.0)
        site = small_site(0, 2_500.0, 2_500.0)
        index.insert(site)
        # Same cell, outside the circle (cell corner is ~3.5 km from
        # the center, radius ~2.5 km).
        assert list(index.covering(4_990.0, 4_990.0)) == []
        assert list(index.covering(2_600.0, 2_600.0)) == [site]
        assert index.queries == 2
        assert index.candidates_scanned == 2

    def test_invalid_geometry_raises(self):
        with pytest.raises(SpectrumMapError):
            GridIndex(extent_m=0.0)
        with pytest.raises(SpectrumMapError):
            GridIndex(extent_m=100.0, cell_m=-1.0)


class TestBatchQueryProof:
    """The acceptance-gate test: 10k points, 100+ stations, no full scan."""

    @staticmethod
    def build_db(seed: int) -> WhiteSpaceDatabase:
        # 30 channels x 4 sites = 120 stations with ~1.8-3.5 km contours
        # spread over a 20 km plane: genuinely sparse occupancy.
        metro = generate_metro(
            range(30),
            seed=seed,
            sites_per_channel=(4, 4),
            eirp_range_dbm=(-5.0, 5.0),
        )
        return WhiteSpaceDatabase(metro, cache_resolution_m=10.0)

    @staticmethod
    def grid_points(extent_m: float, side: int = 100):
        step = extent_m / side
        return [
            (step / 2 + i * step, step / 2 + j * step)
            for i in range(side)
            for j in range(side)
        ]

    def test_10k_point_batch_hits_the_spatial_index(self):
        db = self.build_db(seed=42)
        points = self.grid_points(db.metro.extent_m)
        assert len(points) == 10_000
        assert len(db.metro.sites) >= 100

        responses = free_channels(db, points, t_us=0.0)

        assert db.stats.queries == 10_000
        full_scan = db.stats.queries * len(db.metro.sites)
        # The index must prune hard: a full per-query station scan
        # would inspect 1.2M candidates; the grid keeps it well under
        # a third of that (in practice ~10%).
        assert db.stats.candidates_scanned < 0.33 * full_scan
        assert db.stats.candidates_scanned > 0

        # Exactness: the indexed answers match a reference linear scan
        # over every incumbent, under the cell-granular area semantics
        # (a channel is denied when any contour intersects the query
        # point's quantization square).  Denial is therefore a superset
        # of the point-occupancy reference, never a subset.
        res = db.cache_resolution_m
        for point, channels in list(zip(points, responses))[::97]:
            qx, qy = db.cell_of(*point)
            expected = set()
            for site in db.metro.sites:
                nx = min(max(site.x_m, qx * res), (qx + 1) * res)
                ny = min(max(site.y_m, qy * res), (qy + 1) * res)
                if (site.x_m - nx) ** 2 + (site.y_m - ny) ** 2 <= site.radius_m**2:
                    expected.add(site.uhf_index)
            denied = set(range(30)) - set(channels)
            assert denied == expected
            assert denied >= db.metro.occupied_at(*point)

    def test_batch_results_deterministic_per_seed(self):
        points = self.grid_points(20_000.0)
        a = free_channels(self.build_db(seed=42), points)
        b = free_channels(self.build_db(seed=42), points)
        assert a == b
        c = free_channels(self.build_db(seed=43), points)
        assert a != c

    def test_index_agrees_with_reference_under_clamped_contours(self):
        # A contour centered off one edge still denies on-plane points.
        site = small_site(2, -1_000.0, 5_000.0)
        metro = Metro(extent_m=10_000.0, num_channels=5, sites=(site,))
        db = WhiteSpaceDatabase(metro)
        near, far = free_channels(db, [(500.0, 5_000.0), (9_000.0, 5_000.0)])
        assert 2 not in near
        assert 2 in far


class TestCoveringRectConservativeness:
    """Property-style pin of the invariant sharding relies on.

    A cell-granular response must be safe to act on from *any*
    coordinate inside the cell: the contours ``covering_rect`` yields
    for a cell must be a superset of the contours ``covering`` yields
    for every point in that cell — equivalently, the channels free
    throughout the cell (its cell response) must be a subset of the
    channels free at each point.  The cluster's ``ShardRouter`` leans
    on exactly this when it serves a routed point query from the
    owning shard's cell response.
    """

    def test_rect_candidates_superset_of_any_interior_point(self):
        rng = random.Random(20_090_817)
        for trial in range(40):
            extent = rng.uniform(4_000.0, 30_000.0)
            index = GridIndex(extent_m=extent, cell_m=rng.uniform(300.0, 4_000.0))
            sites = [
                TvTransmitterSite(
                    # EIRP -10..12 dBm: contour radii ~0.9-6 km, so
                    # cells are genuinely partially covered.
                    TvStation(rng.randrange(30), power_dbm=rng.uniform(-10.0, 12.0)),
                    rng.uniform(-0.1 * extent, 1.1 * extent),
                    rng.uniform(-0.1 * extent, 1.1 * extent),
                )
                for _ in range(rng.randrange(3, 25))
            ]
            index.extend(sites)
            res = rng.uniform(50.0, 500.0)
            for _ in range(10):
                qx = rng.randrange(-1, int(extent // res) + 2)
                qy = rng.randrange(-1, int(extent // res) + 2)
                x0, y0 = qx * res, qy * res
                rect_set = {
                    id(e) for e in index.covering_rect(x0, y0, x0 + res, y0 + res)
                }
                for _ in range(8):
                    px = rng.uniform(x0, x0 + res)
                    py = rng.uniform(y0, y0 + res)
                    point_set = {id(e) for e in index.covering(px, py)}
                    assert point_set <= rect_set, (
                        f"trial {trial}: covering({px}, {py}) yielded a "
                        "contour covering_rect missed for its cell"
                    )

    def test_cell_response_subset_of_any_interior_point_response(self):
        rng = random.Random(424_242)
        for _ in range(15):
            extent = rng.uniform(5_000.0, 20_000.0)
            metro = generate_metro(
                rng.sample(range(30), rng.randrange(4, 16)),
                extent_m=extent,
                seed=rng.randrange(1 << 30),
                eirp_range_dbm=(-8.0, 10.0),
            )
            db = WhiteSpaceDatabase(metro, cache_resolution_m=rng.uniform(50.0, 400.0))
            for _ in range(10):
                px = rng.uniform(-0.05 * extent, 1.05 * extent)
                py = rng.uniform(-0.05 * extent, 1.05 * extent)
                qx, qy = db.cell_of(px, py)
                rid = db.response_ids_in_cells(np.array([[qx, qy]])).ids[0]
                cell_free = set(db.responses.tuples[rid])
                # The point's true free set, from the reference scan:
                # anything the cell response grants must be granted at
                # every interior point (conservative area semantics).
                point_free = set(range(metro.num_channels)) - metro.occupied_at(
                    px, py
                )
                assert cell_free <= point_free
                # And the relation is anchored to the right cell: the
                # cell response equals what a point query at (px, py)
                # itself returns (the point rides the cell path).
                point = free_channels(db, [(px, py)])[0]
                assert point == tuple(sorted(cell_free))


class TestCandidatesMutationSafety:
    def test_candidates_returns_a_defensive_copy(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        site = small_site(0, 5_000.0, 5_000.0)
        index.insert(site)
        got = index.candidates(5_500.0, 5_500.0)
        assert isinstance(got, tuple)
        # A caller turning the result into a list and mutating it must
        # not be able to corrupt the live bucket.
        mutated = list(got)
        mutated.clear()
        assert len(index.candidates(5_500.0, 5_500.0)) == 1
        assert list(index.covering(5_500.0, 5_500.0)) == [site]


class TestRepeatInsertion:
    """An object inserted twice lies twice in its cells for the point
    queries, and is scanned once by the area queries (identity dedupe)."""

    def test_repeat_counts_twice_for_points_once_for_areas(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        site = small_site(4, 5_000.0, 5_000.0)
        other = small_site(5, 5_200.0, 5_000.0)
        index.insert(site)
        index.extend([other, site])
        assert len(index) == 3
        assert index.candidates(5_500.0, 5_500.0) == (site, other, site)
        assert list(index.covering(5_500.0, 5_500.0)) == [site, other, site]
        assert index.candidates_scanned == 3
        rect = (5_000.0, 5_000.0, 5_100.0, 5_100.0)
        assert list(index.covering_rect(*rect)) == [site, other]
        assert index.candidates_scanned == 5
        occupied, scanned = index.occupied_in_rects(np.array([rect]), 0.0)
        assert occupied == [frozenset({4, 5})]
        assert scanned == [2]
        assert (index.queries, index.candidates_scanned) == (3, 7)


def _reference(index, entries, rect, t_us):
    """Brute force over every entry: its bucket range recomputed from
    ``cell_of``, identity dedupe, ``circle_intersects_rect``.  Returns
    (yielded entries, occupied channels, candidates scanned)."""
    x0, y0, x1, y1 = rect
    lo_cx, lo_cy = index.cell_of(x0, y0)
    hi_cx, hi_cy = index.cell_of(x1, y1)
    seen, yielded, occupied = set(), [], set()
    for entry in entries:
        r = entry.radius_m
        e_lo = index.cell_of(entry.x_m - r, entry.y_m - r)
        e_hi = index.cell_of(entry.x_m + r, entry.y_m + r)
        if id(entry) in seen or not (
            e_lo[0] <= hi_cx and e_hi[0] >= lo_cx
            and e_lo[1] <= hi_cy and e_hi[1] >= lo_cy
        ):
            continue
        seen.add(id(entry))
        if circle_intersects_rect(entry.x_m, entry.y_m, r, x0, y0, x1, y1):
            yielded.append(entry)
            if entry.active_at(t_us):
                occupied.add(entry.uhf_index)
    return yielded, occupied, len(seen)


def _point_reference(index, entries, x, y):
    """Every insertion whose bucket range holds (x, y)'s cell."""
    cx, cy = index.cell_of(x, y)
    rows = []
    for entry in entries:
        r = entry.radius_m
        e_lo = index.cell_of(entry.x_m - r, entry.y_m - r)
        e_hi = index.cell_of(entry.x_m + r, entry.y_m + r)
        if e_lo[0] <= cx <= e_hi[0] and e_lo[1] <= cy <= e_hi[1]:
            rows.append(entry)
    return rows


def _mic(uhf, x, y, radius, sessions):
    return MicRegistration(
        WirelessMicrophone(uhf, [MicSession(a, b) for a, b in sessions]),
        x,
        y,
        radius,
    )


class TestMissKernelDifferential:
    """``occupied_in_rects`` (and ``covering_rect``/``covering``) against
    a brute-force reference, on random and constructed edge cases."""

    @staticmethod
    def check(index, entries, rects, t_us):
        rects = [tuple(map(float, r)) for r in rects]
        want = [_reference(index, entries, r, t_us) for r in rects]
        queries, scanned_total = index.queries, index.candidates_scanned
        occupied, scanned = index.occupied_in_rects(np.array(rects), t_us)
        assert occupied == [w[1] for w in want]
        assert scanned == [w[2] for w in want]
        assert index.queries - queries == len(rects)
        assert index.candidates_scanned - scanned_total == sum(scanned)
        for rect, (yielded, _, count) in zip(rects, want):
            before = index.candidates_scanned
            assert {id(e) for e in index.covering_rect(*rect)} == {
                id(e) for e in yielded
            }
            assert index.candidates_scanned - before == count
        assert index.queries - queries == 2 * len(rects)

    def test_random_metros(self):
        rng = random.Random(15_2009)
        for _ in range(60):
            extent = rng.uniform(2_000.0, 30_000.0)
            index = GridIndex(extent_m=extent, cell_m=rng.uniform(150.0, 5_000.0))
            entries = [
                TvTransmitterSite(
                    TvStation(rng.randrange(30), power_dbm=rng.uniform(-12.0, 14.0)),
                    rng.uniform(-0.2 * extent, 1.2 * extent),
                    rng.uniform(-0.2 * extent, 1.2 * extent),
                )
                for _ in range(rng.randrange(0, 30))
            ]
            entries += [
                _mic(
                    rng.randrange(30),
                    rng.uniform(-0.1 * extent, 1.1 * extent),
                    rng.uniform(-0.1 * extent, 1.1 * extent),
                    rng.uniform(10.0, 2_000.0),
                    [(s, s + rng.uniform(0.0, 50.0)) for s in
                     sorted(rng.uniform(0.0, 100.0) for _ in range(rng.randrange(3)))],
                )
                for _ in range(rng.randrange(0, 6))
            ]
            rng.shuffle(entries)
            if entries and rng.random() < 0.3:
                entries.append(rng.choice(entries))
            half = rng.randrange(len(entries) + 1)
            index.extend(entries[:half])
            for entry in entries[half:]:
                index.insert(entry)
            res = rng.uniform(20.0, 1_000.0)
            rects = []
            for _ in range(rng.randrange(1, 40)):
                qx = rng.randrange(-3, int(extent // res) + 3)
                qy = rng.randrange(-3, int(extent // res) + 3)
                x0, y0 = qx * res, qy * res
                rects.append((x0, y0, x0 + res, y0 + res))
            for _ in range(5):
                x0 = rng.uniform(-0.3 * extent, 1.1 * extent)
                y0 = rng.uniform(-0.3 * extent, 1.1 * extent)
                x1 = x0 + rng.uniform(0.0, extent)
                rects.append((x0, y0, x1, y0 + rng.uniform(0.0, 0.2 * extent)))
            self.check(index, entries, rects, rng.uniform(0.0, 120.0))
            for _ in range(10):
                px = rng.uniform(-0.2 * extent, 1.2 * extent)
                py = rng.uniform(-0.2 * extent, 1.2 * extent)
                rows = _point_reference(index, entries, px, py)
                assert list(index.candidates(px, py)) == rows
                before = index.candidates_scanned
                assert list(index.covering(px, py)) == [
                    e for e in rows if e.covers(px, py)
                ]
                assert index.candidates_scanned - before == len(rows)

    def test_rect_edges_on_grid_lines(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        entries = [
            _mic(1, 2_999.0, 5_000.0, 1.0, [(0.0, 10.0)]),  # bbox ends on x=3000
            _mic(2, 7_001.0, 5_000.0, 1.0, [(0.0, 10.0)]),  # bbox starts on x=7000
            _mic(3, 5_000.0, 5_000.0, 2_000.0, [(0.0, 10.0)]),
            _mic(4, 10_000.0, 10_000.0, 500.0, [(0.0, 10.0)]),  # plane corner
        ]
        index.extend(entries)
        rects = [
            (3_000.0, 4_000.0, 7_000.0, 6_000.0),
            (3_000.0, 3_000.0, 3_000.0, 3_000.0),
            (7_000.0, 5_000.0, 8_000.0, 6_000.0),
            (9_000.0, 9_000.0, 10_000.0, 10_000.0),
            (10_000.0, 10_000.0, 11_000.0, 11_000.0),
            (0.0, 0.0, 1_000.0, 1_000.0),
        ]
        self.check(index, entries, rects, 5.0)

    def test_cell_floor_is_python_floor_division(self):
        # 1.0 // 0.1 is 9.0 while floor(1.0 / 0.1) is 10.0: a rectangle
        # ending at x = 1.0 stops at cell 9, short of the mic's range.
        index = GridIndex(extent_m=10.0, cell_m=0.1)
        entries = [_mic(1, 1.5, 0.5, 0.45, [(0.0, 10.0)])]
        index.extend(entries)
        assert index.cell_of(1.0, 0.0) == (9, 0)
        self.check(index, entries, [(0.5, 0.5, 1.0, 1.0)], 0.0)
        assert index.occupied_in_rects(np.array([(0.5, 0.5, 1.0, 1.0)]), 0.0)[1] == [0]

    def test_tangent_circles(self):
        # Exactly representable tangents (edge and 3-4-5 corner), then
        # corner offsets whose distance ``np.hypot`` and ``math.hypot``
        # round differently (where there are any) plus random ones, each
        # with the radius at the Python distance and one ulp either
        # side: the verdicts the array distance alone could get wrong.
        rng = random.Random(1_729)
        x0, y0, x1, y1 = 1_000.0, 2_000.0, 1_100.0, 2_100.0
        entries = [
            _mic(0, x0 - 500.0, 2_050.0, 500.0, [(0.0, 10.0)]),
            _mic(1, x1 + 300.0, y1 + 400.0, 500.0, [(0.0, 10.0)]),
            _mic(2, x1 + 300.0, y1 + 400.0, math.nextafter(500.0, 0.0), [(0.0, 10.0)]),
        ]
        centers = [
            (x1 + rng.uniform(1.0, 3_000.0), y0 - rng.uniform(1.0, 3_000.0))
            for _ in range(5_000)
        ]
        differing = [
            (cx, cy) for cx, cy in centers
            if float(np.hypot(cx - x1, cy - y0)) != math.hypot(cx - x1, cy - y0)
        ]
        for k, (cx, cy) in enumerate(differing[:40] + centers[:40]):
            distance = math.hypot(cx - x1, cy - y0)
            for radius in (
                distance,
                math.nextafter(distance, 0.0),
                math.nextafter(distance, math.inf),
            ):
                entries.append(_mic(k % 30, cx, cy, radius, [(0.0, 10.0)]))
        for entry in entries:
            index = GridIndex(extent_m=10_000.0, cell_m=700.0)
            index.insert(entry)
            self.check(index, [entry], [(x0, y0, x1, y1)], 5.0)
        index = GridIndex(extent_m=10_000.0, cell_m=700.0)
        index.extend(entries)
        self.check(index, entries, [(x0, y0, x1, y1)], 5.0)

    def test_sessions_starting_or_ending_at_t(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        entries = [
            _mic(1, 5_000.0, 5_000.0, 800.0, [(10.0, 20.0)]),  # starts at t
            _mic(2, 5_100.0, 5_000.0, 800.0, [(0.0, 10.0)]),  # ends at t
            _mic(3, 5_200.0, 5_000.0, 800.0, [(0.0, 10.0), (10.0, 11.0)]),
            small_site(4, 5_000.0, 5_300.0),
        ]
        index.extend(entries)
        rects = [
            (5_000.0, 5_000.0, 5_100.0, 5_100.0),
            (9_000.0, 9_000.0, 9_100.0, 9_100.0),
        ]
        for t_us in (0.0, 10.0, 20.0):
            self.check(index, entries, rects, t_us)
        occupied, _ = index.occupied_in_rects(np.array(rects[:1]), 10.0)
        assert occupied == [frozenset({1, 3, 4})]

    def test_repeat_insertion(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        site = small_site(4, 5_000.0, 5_000.0)
        entries = [site, small_site(5, 1_000.0, 1_000.0), site]
        index.extend(entries[:2])
        index.insert(site)
        rects = [(5_000.0, 5_000.0, 5_100.0, 5_100.0), (0.0, 0.0, 9_000.0, 9_000.0)]
        self.check(index, entries, rects, 0.0)

    def test_empty_index(self):
        index = GridIndex(extent_m=10_000.0, cell_m=1_000.0)
        self.check(index, [], [(0.0, 0.0, 100.0, 100.0), (-50.0, 0.0, 0.0, 50.0)], 0.0)
        assert index.candidates(10.0, 10.0) == ()
        assert list(index.covering(10.0, 10.0)) == []


class TestCircleIntersectsCellsDifferential:
    """The array zone/cell predicate equals ``circle_intersects_cell``."""

    @staticmethod
    def check(cx, cy, radius, cells, res):
        qx = np.array([c[0] for c in cells], dtype=np.int64)
        qy = np.array([c[1] for c in cells], dtype=np.int64)
        got = circle_intersects_cells(cx, cy, radius, qx, qy, res).tolist()
        want = [
            circle_intersects_cell(cx, cy, radius, x, y, res) for x, y in cells
        ]
        assert got == want
        return want

    def test_random_zones(self):
        rng = random.Random(3)
        for _ in range(200):
            res = rng.choice([0.1, 1.0, 37.5, 100.0, 250.0])
            cells = [
                (rng.randrange(-30, 30), rng.randrange(-30, 30))
                for _ in range(rng.randrange(1, 40))
            ]
            self.check(
                rng.uniform(-20.0, 20.0) * res,
                rng.uniform(-20.0, 20.0) * res,
                rng.uniform(0.0, 15.0) * res,
                cells,
                res,
            )

    def test_tangent_edges_and_corners(self):
        # Exact tangents (3-4-5 offsets make corner distances exact)
        # land inside the tie band and must count as touching.
        res = 100.0
        touched = []
        for scale in (1.0, 30.0, 0.1):
            r = 5.0 * scale
            for cx, cy in (
                (100.0 + r, 50.0),  # east edge of cell (0, 0)
                (50.0, -r),  # south edge
                (100.0 + 3 * scale, 100.0 + 4 * scale),  # north-east corner
                (-4 * scale, -3 * scale),  # south-west corner
            ):
                touched += self.check(cx, cy, r, [(0, 0), (1, 0), (-1, -1)], res)
                # One ulp further out misses.
                far = math.nextafter(r, 0.0)
                self.check(cx, cy, far, [(0, 0)], res)
        assert any(touched)

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        assert circle_intersects_cells(0.0, 0.0, 1.0, empty, empty, 1.0).size == 0


def _bit_set(mask):
    return frozenset(c for c in range(63) if mask >> c & 1)


class TestSquaredVerdicts:
    """The kernel's squared-distance verdicts equal ``circle_intersects_rect``
    on the pairs a squared comparison is most likely to get wrong:
    exact tangents, radii one ulp either side of the distance, radius 0,
    squares that underflow (coordinates near 1e-160) and large ones
    (near 1e150), on a one-segment and a stacked index."""

    @staticmethod
    def pairs(scale):
        """(rect, [(x, y, radius), ...]) at *scale*: each contour's
        distance to the rectangle is exact or one ulp off its radius."""
        x0, y0, x1, y1 = 1.0 * scale, 2.0 * scale, 1.5 * scale, 2.5 * scale
        circles = []
        for cx, cy, distance in (
            (x1 + 0.25 * scale, 2.2 * scale, 0.25 * scale),  # east edge
            (1.2 * scale, y0 - 0.5 * scale, 0.5 * scale),  # south edge
            (x1 + 0.375 * scale, y1 + 0.5 * scale, 0.625 * scale),  # 3-4-5 corner
            (x0 - 0.3 * scale, y0 - 0.7 * scale, None),  # inexact corner
        ):
            if distance is None:
                distance = math.hypot(cx - x0, cy - y0)
            for radius in (
                distance,
                math.nextafter(distance, 0.0),
                math.nextafter(distance, math.inf),
            ):
                circles.append((cx, cy, radius))
        # Radius 0: a center on the edge touches, one just off does not.
        circles += [
            (x1, 2.2 * scale, 0.0),
            (math.nextafter(x1, math.inf), 2.2 * scale, 0.0),
            (x0, y0, 0.0),
            (x0, y0, -0.0),
            (1.2 * scale, 2.2 * scale, 0.0),
        ]
        return (x0, y0, x1, y1), circles

    @staticmethod
    def check(rect, circles, extent, edge, stacked):
        entries = [
            _mic(k % 63, cx, cy, r, [(0.0, 10.0)])
            for k, (cx, cy, r) in enumerate(circles)
        ]
        for entry in entries:
            want = circle_intersects_rect(
                entry.x_m, entry.y_m, entry.radius_m, *rect
            )
            index = GridIndex(extent, [edge, edge] if stacked else edge)
            index.extend([entry], 1 if stacked else 0)
            segments = np.array([1 if stacked else 0])
            masks, scanned = index.occupied_masks(np.array([rect]), 5.0, segments)
            assert masks.tolist() == [(1 << entry.uhf_index) if want else 0], (
                entry, rect
            )
            assert scanned.tolist() == [1]
        # All of them in one index: the same verdicts, batched.
        index = GridIndex(extent, [edge, edge] if stacked else edge)
        index.extend(entries, 1 if stacked else 0)
        segments = np.array([1 if stacked else 0])
        masks, _ = index.occupied_masks(np.array([rect]), 5.0, segments)
        want = {
            e.uhf_index for e in entries
            if circle_intersects_rect(e.x_m, e.y_m, e.radius_m, *rect)
        }
        assert _bit_set(int(masks[0])) == want

    @pytest.mark.parametrize("stacked", [False, True])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-160, 1e150])
    def test_adversarial_pairs(self, scale, stacked):
        rect, circles = self.pairs(scale)
        self.check(rect, circles, 10.0 * scale, 0.7 * scale, stacked)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e-160, 1e150])
    def test_cells_form_agrees(self, scale):
        # The zone/cell form shares the verdict: the same circles
        # against the cells around the rectangle's.
        res = 0.5 * scale
        _, circles = self.pairs(scale)
        cells = [(qx, qy) for qx in range(1, 5) for qy in range(3, 7)]
        for cx, cy, radius in circles:
            TestCircleIntersectsCellsDifferential.check(cx, cy, radius, cells, res)

    def test_underflowing_and_overflowing_squares(self):
        # Offsets whose squares underflow to zero or overflow to inf.
        rect = (0.0, 0.0, 1e-200, 1e-200)
        circles = [
            (3e-200, 0.5e-200, 2e-200),
            (3e-200, 0.5e-200, math.nextafter(2e-200, 0.0)),
            (3e-200, 0.5e-200, 0.0),
            (2e-300, 2e-300, 1e-300),
        ]
        self.check(rect, circles, 1e-190, 1e-199, False)
        # Subnormal squares: dx*dx + dy*dy rounds below radius*radius
        # although the distance is one ulp past the radius.
        rect = (-1e-150, -1e-150, 0.0, 0.0)
        circles = [
            (5.147948438789446e-162, 1.2461585757707413e-161, 1.3483044638549961e-161),
            (1.1821377045123083e-161, 9.786826163935155e-162, 1.534688638147975e-161),
        ]
        for cx, cy, r in circles:
            assert cx * cx + cy * cy < r * r
            assert not circle_intersects_rect(cx, cy, r, *rect)
        self.check(rect, circles, 1e-140, 1e-150, False)
        self.check(rect, circles, 1e-140, 1e-150, True)
        rect = (0.0, 0.0, 1.0, 1.0)
        circles = [
            (1e200, 0.5, 1e200),
            (1e200, 0.5, math.nextafter(1e200 - 1.0, 0.0)),
            (1e200, 0.5, 2e200),
            (-1e300, 1e300, 1e300),
        ]
        self.check(rect, circles, 1e301, 1e299, False)


class TestOccupiedMasks:
    """Kernel masks against ``covering_rect`` filtered by ``active_at``."""

    @pytest.mark.parametrize("stacked", [False, True])
    def test_masks_are_covering_rect_filtered_by_active_at(self, stacked):
        rng = random.Random(25_63)
        for _ in range(30):
            extent = rng.uniform(2_000.0, 20_000.0)
            edge = rng.uniform(200.0, 4_000.0)
            entries = [
                small_site(rng.randrange(63), rng.uniform(0.0, extent),
                           rng.uniform(0.0, extent))
                for _ in range(rng.randrange(1, 12))
            ] + [
                _mic(
                    rng.randrange(63),
                    rng.uniform(0.0, extent),
                    rng.uniform(0.0, extent),
                    rng.uniform(50.0, 3_000.0),
                    [(0.0, 40.0), (60.0, 90.0)],
                )
                for _ in range(rng.randrange(0, 8))
            ]
            if stacked:
                index = GridIndex(extent, [edge, edge * 1.5])
                index.extend(entries, 1)
                ref = GridIndex(extent, edge * 1.5)
                ref.extend(entries)
            else:
                index = ref = GridIndex(extent, edge)
                index.extend(entries)
            rects = []
            for _ in range(rng.randrange(1, 60)):
                x0 = rng.uniform(-0.1 * extent, extent)
                y0 = rng.uniform(-0.1 * extent, extent)
                side = rng.uniform(1.0, 500.0)
                rects.append((x0, y0, x0 + side, y0 + side))
            segments = np.full(len(rects), 1 if stacked else 0)
            for t_us in (10.0, 50.0, 70.0):
                masks, scanned = index.occupied_masks(
                    np.array(rects), t_us, segments
                )
                for rect, mask in zip(rects, masks.tolist()):
                    want = 0
                    for entry in ref.covering_rect(*rect):
                        if entry.active_at(t_us):
                            want |= 1 << entry.uhf_index
                    assert mask == want
                assert masks.dtype == np.int64 and (masks >= 0).all()

    def test_channel_62_is_the_top_bit(self):
        index = GridIndex(10_000.0, 1_000.0)
        index.extend([small_site(62, 5_000.0, 5_000.0), small_site(0, 5_100.0, 5_000.0)])
        masks, _ = index.occupied_masks(np.array([(5_000.0, 5_000.0, 5_100.0, 5_100.0)]), 0.0)
        assert masks.tolist() == [(1 << 62) | 1]
        assert index.occupied_in_rects(
            np.array([(5_000.0, 5_000.0, 5_100.0, 5_100.0)]), 0.0
        )[0] == [frozenset({0, 62})]


class TestMaskInterning:
    """Masks map to response ids through the service's known-mask column;
    new masks are interned in order of first occurrence."""

    @staticmethod
    def metro():
        # Channel 5 occupies the west of the plane, channel 1 the east.
        return Metro(
            extent_m=20_000.0,
            num_channels=8,
            registrations=(
                _mic(5, 2_000.0, 10_000.0, 500.0, [(0.0, 100.0)]),
                _mic(1, 18_000.0, 10_000.0, 500.0, [(0.0, 100.0)]),
            ),
        )

    @pytest.mark.parametrize("capacity", [0, 8_192])
    def test_known_and_new_masks_intern_in_first_occurrence_order(self, capacity):
        db = WhiteSpaceDatabase(self.metro(), cache_capacity=capacity)
        free = (5_000 // 100, 10_000 // 100)  # nothing occupied
        west = (2_000 // 100, 10_000 // 100)  # mask 1 << 5
        east = (18_000 // 100, 10_000 // 100)  # mask 1 << 1
        first = db.response_ids_in_cells(np.array([free]), 1.0).ids
        assert db.responses.tuples[1:] == [tuple(range(8))]
        # A known mask, then the larger new mask before the smaller one.
        ids = db.response_ids_in_cells(
            np.array([free, west, east, free, west, (east[0] + 1, east[1])]), 1.0
        ).ids
        assert db.responses.tuples[2:] == [
            (0, 1, 2, 3, 4, 6, 7),
            (0, 2, 3, 4, 5, 6, 7),
        ]
        assert ids.tolist() == [first[0], 2, 3, first[0], 2, 3]
        # A fresh service asked one cell at a time agrees id for id.
        loop = WhiteSpaceDatabase(self.metro(), cache_capacity=capacity)
        loop.response_ids_in_cells(np.array([free]), 1.0)
        for cell, rid in zip([free, west, east, free, west], ids.tolist()):
            assert loop.response_ids_in_cells(np.array([cell]), 1.0).ids.tolist() == [rid]
        assert loop.responses.tuples == db.responses.tuples

    def test_more_than_63_channels_raises(self):
        from repro.wsdb.cluster.router import ShardRouter

        for cls, args in ((WhiteSpaceDatabase, ()), (ShardRouter, (4,))):
            with pytest.raises(SpectrumMapError, match="63"):
                cls(Metro(extent_m=10_000.0, num_channels=64), *args)
            cls(Metro(extent_m=10_000.0, num_channels=63), *args)

    def test_sixty_three_channels_answer(self):
        site = small_site(62, 5_000.0, 5_000.0)
        db = WhiteSpaceDatabase(
            Metro(extent_m=10_000.0, num_channels=63, sites=(site,))
        )
        near, far = free_channels(db, [(5_000.0, 5_000.0), (500.0, 500.0)])
        assert near == tuple(range(62))
        assert far == tuple(range(63))
