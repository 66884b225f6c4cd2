"""A uniform-grid spatial index over protected contours, stored as columns.

The naive way to answer "which channels are denied at (x, y)?" scans
every incumbent — O(stations) per query, O(stations x queries) for the
batch workloads a city-scale database serves (hundreds of APs, periodic
re-queries, coverage surveys).  The grid index gives each contour the
range of grid cells its bounding box overlaps, ``lo_cx..hi_cx x
lo_cy..hi_cy`` (clamped to the plane by :meth:`GridIndex.cell_of`): an
entry lies in cell (cx, cy) exactly when cx and cy fall in its range.
A query inspects only the entries whose range overlaps the query's
cells, and an exact distance check filters bounding-box false
positives.

The index's only storage is columnar.  At insert each contour's
position, radius and squared-radius band (computed once, not per
query), channel bit and cell range are appended to numpy columns, next
to the entry object itself, which is kept for what the queries yield
and for its ``active_at`` schedule.  "Candidate of a rectangle" is then
a range-overlap test over the columns, and
:meth:`GridIndex.occupied_masks` — the cache-miss kernel of both
service tiers — resolves a whole batch of rectangles to occupied-channel
bitmasks in one array pass, comparing ``dx*dx + dy*dy`` with the band
(a pair inside it is re-decided by :func:`circle_intersects_rect`).
An index can be *stacked*: K segments (a shard router's shards), each
with its own cell edge and rows, in one set of columns; each rectangle
then meets only its own segment's rows, so one kernel call answers a
batch's misses across every shard.

The index keeps two counters — ``queries`` and ``candidates_scanned`` —
so tests (and benchmarks) can prove the pruning actually happened: for a
spread-out metro, ``candidates_scanned`` stays far below
``queries * len(entries)``.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, Protocol, Sequence

import numpy as np

from repro.errors import SpectrumMapError

__all__ = [
    "GridIndex",
    "SpatialEntry",
    "circle_intersects_cell",
    "circle_intersects_cells",
    "circle_intersects_rect",
]

#: Relative band around a contour's squared radius inside which a
#: squared distance ``dx*dx + dy*dy`` (a few roundings, parts in 1e16,
#: off the exact square) is not trusted to fall on the same side as
#: ``math.hypot(dx, dy) <= radius`` (under an ulp off); see _square_band.
_TIE_BAND = 1e-9

#: The band's absolute floor (squares that underflow lose their relative
#: precision) and the cap past which its upper edge is +inf (a square
#: that overflows is surely outside only a far smaller squared radius).
_SQUARE_FLOOR = float(np.finfo(float).tiny)
_SQUARE_CAP = float(np.finfo(float).max) / 2

#: Rectangle x entry pairs the kernel evaluates per array pass; larger
#: batches are cut into passes of this size so memory stays bounded.
_PAIRS_PER_PASS = 1 << 18

#: Signs that turn a query's reversed cell range (hi_cy, hi_cx, lo_cy,
#: lo_cx) into the row the area-query ``bounds`` are compared against.
_QUERY_SIGN = np.array([1.0, 1.0, -1.0, -1.0])


def circle_intersects_rect(
    cx_m: float,
    cy_m: float,
    radius_m: float,
    x0_m: float,
    y0_m: float,
    x1_m: float,
    y1_m: float,
) -> bool:
    """True when a circle intersects an axis-aligned rectangle.

    Standard clamped-nearest-point test, boundary-inclusive.  This is
    the one geometry predicate behind the cell-granular protocol: the
    index uses it to *compute* area responses and the service uses it
    to *invalidate* them, so both sides agree exactly at contour edges.
    """
    nearest_x = min(max(cx_m, x0_m), x1_m)
    nearest_y = min(max(cy_m, y0_m), y1_m)
    return math.hypot(cx_m - nearest_x, cy_m - nearest_y) <= radius_m


def circle_intersects_cell(
    cx_m: float,
    cy_m: float,
    radius_m: float,
    qx: int,
    qy: int,
    resolution_m: float,
) -> bool:
    """True when a circle intersects quantization cell (qx, qy).

    The one place the cell-(qx, qy) -> rectangle conversion lives.
    Response invalidation (service), stale-store purging (cluster
    frontend), and push notification (cluster registry) must agree
    exactly on which cells a protection zone touches — a device is
    notified iff its cached response was invalidated — so all three
    ride this helper (through its array form,
    :func:`circle_intersects_cells`) instead of rebuilding the
    rectangle themselves.
    """
    return circle_intersects_rect(
        cx_m,
        cy_m,
        radius_m,
        qx * resolution_m,
        qy * resolution_m,
        (qx + 1) * resolution_m,
        (qy + 1) * resolution_m,
    )


def _square_band(radius: np.ndarray) -> np.ndarray:
    """The (2, n) squared-distance band of contours of *radius*: a
    point nearer than row 0 (squared) lies surely inside, one farther
    than row 1 surely outside, one between (or NaN) is undecided.

    ``radius**2`` less or more ``_TIE_BAND`` of itself plus
    ``_SQUARE_FLOOR``; a negative radius contains nothing, and a NaN or
    infinite one leaves every pair undecided.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        square = radius * radius
        near = square * _TIE_BAND + _SQUARE_FLOOR
        band = np.array([square - near, square + near])
    band[:, radius < 0] = -math.inf
    band[1, band[1] > _SQUARE_CAP] = math.inf
    return band


def _verdicts(offset: np.ndarray, band: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(surely inside, surely inside or outside) of nearest-point
    offsets *offset* ((2, ...): ``dx``, ``dy``; squared in place, inf
    on overflow) against a :func:`_square_band`'s broadcast rows."""
    with np.errstate(over="ignore", invalid="ignore"):
        square = np.square(offset, out=offset)
        distance = np.add(square[0], square[1])
    inside = distance < band[0]
    return inside, inside | (distance > band[1])


def circle_intersects_cells(
    cx_m: float,
    cy_m: float,
    radius_m: float,
    qx: np.ndarray,
    qy: np.ndarray,
    resolution_m: float,
) -> np.ndarray:
    """:func:`circle_intersects_cell` for arrays of cells, as a bool mask.

    The predicate's nearest point elementwise (cell ``(qx, qy)`` spans
    ``qx * res`` to ``(qx + 1) * res`` per axis) and the miss kernel's
    squared verdict (:func:`_verdicts`); a cell inside the band is
    re-decided by :func:`circle_intersects_cell` itself, so every
    verdict is that predicate's, bit for bit.  The one array form of
    the zone/cell geometry: service invalidation, stale-store purging
    and push notification all ride it.
    """
    cells = np.stack((qx, qy))
    center = np.array([[cx_m], [cy_m]])
    nearest = np.minimum(
        np.maximum(center, cells * resolution_m), (cells + 1) * resolution_m
    )
    touches, decided = _verdicts(
        center - nearest, _square_band(np.array([radius_m]))
    )
    for i in np.flatnonzero(~decided).tolist():
        touches[i] = circle_intersects_cell(
            cx_m, cy_m, radius_m, int(qx[i]), int(qy[i]), resolution_m
        )
    return touches


class SpatialEntry(Protocol):
    """Anything with a position, a radius, a channel, and a schedule.

    Both :class:`~repro.wsdb.model.TvTransmitterSite` (whose
    ``active_at`` is constant True) and
    :class:`~repro.wsdb.model.MicRegistration` satisfy this.
    """

    x_m: float
    y_m: float
    uhf_index: int

    @property
    def radius_m(self) -> float: ...

    def active_at(self, t_us: float) -> bool: ...

    def covers(self, x_m: float, y_m: float) -> bool: ...


class GridIndex:
    """Uniform grid of square cells over circular contours.

    Args:
        extent_m: plane edge length (cells tile ``[0, extent_m]^2``;
            out-of-range coordinates clamp to the border cells, so
            contours centered off-plane still index correctly).
        cell_m: cell edge length.  Smaller cells prune harder; ~the
            typical contour radius is a good default.  A sequence of
            edges makes a *stacked* index of one segment per edge: K
            indexes in one set of columns.  Segment *s* holds the rows
            :meth:`extend` gives it, cell ranges in its own edge, and
            :meth:`occupied_masks` answers each rectangle against
            its own segment's rows only.  The point queries,
            :meth:`covering_rect` and :meth:`cell_of` see the index as
            one segment (``cell_m`` and ``cells_per_side`` are segment
            0's edge and grid).

    An entry inserted twice into a segment lies twice in its cells: it
    counts twice in ``len``, :meth:`candidates` and :meth:`covering`,
    while the area queries (:meth:`covering_rect`,
    :meth:`occupied_masks`) dedupe by identity and scan it once.
    """

    def __init__(self, extent_m: float, cell_m: float | Sequence[float] = 1_000.0):
        edges = np.array(cell_m, dtype=float).reshape(-1)
        if extent_m <= 0 or not edges.size or not (edges > 0).all():
            raise SpectrumMapError(
                f"extent ({extent_m!r}) and cell size ({cell_m!r}) "
                "must be > 0"
            )
        self.extent_m = extent_m
        self._edges = edges
        self._sides = [max(1, math.ceil(extent_m / e)) for e in edges.tolist()]
        self.cell_m = float(edges[0])
        self.cells_per_side = self._sides[0]
        # Rows are kept grouped by segment: segment s's rows are
        # _starts[s]:_starts[s + 1].
        self._starts = np.zeros(edges.size + 1, dtype=np.intp)
        self._entries: list[SpatialEntry] = []
        self._ids: set[tuple[int, int]] = set()
        # Each distinct object once, numbered by first insertion.
        self._objects: list[SpatialEntry] = []
        self._numbers: dict[int, int] = {}
        # The miss kernel's active_at answers at sim time _asked_at, by
        # object number (-1: not asked yet); an insertion drops them.
        self._asked_at: float | None = None
        self._active = np.zeros(0, dtype=np.int8)
        # The columns, one per row.  A float table holds, per entry:
        #   0-1   x, y;
        #   2-5   the clamped bbox cell range in the form the area
        #         queries test, ``bounds <= (hi_cy, hi_cx, -lo_cy,
        #         -lo_cx)`` of the query: lo_cy, lo_cx, -hi_cy, -hi_cx,
        #         with a border side left open (-inf) so unclamped query
        #         cells test as clamped ones, and +inf for a repeat
        #         insertion of an object (never a candidate: area
        #         queries dedupe by identity);
        #   6-7   the squared-radius band (_square_band);
        #   8-12  the radius and the clamped bbox cell range lo_cx,
        #         lo_cy, hi_cx, hi_cy (the miss kernel reads rows 0-7);
        # and an int table the channel's bit and the object's number.
        self._table = np.empty((13, 0))
        self._ints = np.empty((2, 0), dtype=np.int64)
        self._width = 0  # the most rows of any segment
        self._set_views()
        #: Point queries answered since construction.
        self.queries = 0
        #: Candidate entries inspected across all queries (the number a
        #: full-scan implementation would put at queries * entries).
        self.candidates_scanned = 0

    def __len__(self) -> int:
        return len(self._entries)

    def _set_views(self) -> None:
        # The live rows, sliced once per insert rather than per query.
        n = len(self._entries)
        self._centers = self._table[0:2, :n]
        self._bound = self._table[2:6, :n]
        self._radius = self._table[8, :n]
        self._cell = self._table[9:13, :n]

    def _axis_cell(self, coord_m: float) -> int:
        return min(self.cells_per_side - 1, max(0, int(coord_m // self.cell_m)))

    def cell_of(self, x_m: float, y_m: float) -> tuple[int, int]:
        """The (column, row) cell containing — or clamped to — (x, y)."""
        return (self._axis_cell(x_m), self._axis_cell(y_m))

    def insert(self, entry: SpatialEntry) -> None:
        """Add *entry*, with the cell range its contour's bbox overlaps."""
        self.extend((entry,))

    def extend(
        self, entries: Iterable[SpatialEntry], segment: int | Sequence[int] = 0
    ) -> None:
        """Insert many entries, writing all of their rows in one step.

        *segment* names one segment for all of them, or one per entry;
        each row goes after its segment's rows.  The cell ranges are
        :meth:`cell_of`'s in the segment's edge, computed on arrays
        (``np.floor_divide`` is Python's float ``//``).
        """
        new = list(entries)
        if not new:
            return
        self._asked_at = None
        seg = np.broadcast_to(np.asarray(segment, dtype=np.intp), (len(new),))
        order = seg.argsort(kind="stable")
        new, seg = [new[i] for i in order.tolist()], seg[order]
        edge, side = self._edges[seg], np.array(self._sides)[seg]
        rows = np.empty((13, len(new)))
        rows[[0, 1, 8]] = np.array([(e.x_m, e.y_m, e.radius_m) for e in new]).T
        centers, radius = rows[0:2], rows[8]
        cells = rows[9:13]
        np.floor_divide(centers - radius, edge, out=cells[0:2])
        np.floor_divide(centers + radius, edge, out=cells[2:4])
        np.minimum(np.maximum(cells, 0, out=cells), side - 1, out=cells)
        # (lo_cy, lo_cx) and (hi_cy, hi_cx), open on the plane's border.
        lo, hi = cells[1::-1], cells[:1:-1]
        rows[2:4] = np.where(lo == 0, -math.inf, lo)
        rows[4:6] = -np.where(hi == side - 1, math.inf, hi)
        rows[6:8] = _square_band(radius)
        for j, (s, entry) in enumerate(zip(seg.tolist(), new)):
            if (s, id(entry)) in self._ids:
                rows[2:6, j] = math.inf
            self._ids.add((s, id(entry)))
            if id(entry) not in self._numbers:
                self._numbers[id(entry)] = len(self._objects)
                self._objects.append(entry)
        ints = [
            [1 << entry.uhf_index for entry in new],
            [self._numbers[id(entry)] for entry in new],
        ]
        at = self._starts[seg + 1]
        self._table = np.insert(self._table, at, rows, axis=1)
        self._ints = np.insert(self._ints, at, ints, axis=1)
        for i, entry in reversed(list(zip(at.tolist(), new))):
            self._entries.insert(i, entry)
        self._starts[1:] += np.bincount(seg, minlength=len(self._sides)).cumsum()
        self._width = int(np.diff(self._starts).max())
        self._set_views()

    def _candidates_of(self, cells: np.ndarray, bound: np.ndarray) -> np.ndarray:
        """(w, m) mask: row j of *bound* is a candidate of area query i.

        *cells* is (m, 4): the query's cell range ``lo_cx, lo_cy,
        hi_cx, hi_cy``, clamped or not; *bound* is the area-query bound
        rows, (4, w, 1) or one row set per query (4, w, m).  A
        candidate's own range overlaps the query's, and the row is its
        object's first insertion.
        """
        query = np.ascontiguousarray((cells[:, ::-1] * _QUERY_SIGN).T)
        return np.logical_and.reduce(bound <= query[:, None], 0)

    def _rows_at(self, x_m: float, y_m: float) -> list[int]:
        """Rows (repeats included) whose cell range holds (x, y)'s cell."""
        cx, cy = self.cell_of(x_m, y_m)
        lo_cx, lo_cy, hi_cx, hi_cy = self._cell
        return np.flatnonzero(
            (lo_cx <= cx) & (cx <= hi_cx) & (lo_cy <= cy) & (cy <= hi_cy)
        ).tolist()

    def candidates(self, x_m: float, y_m: float) -> Sequence[SpatialEntry]:
        """Entries whose contour *might* cover (x, y) — one cell's bucket.

        Returned as a tuple, in insertion order.
        """
        entries = self._entries
        return tuple(entries[j] for j in self._rows_at(x_m, y_m))

    def covering(self, x_m: float, y_m: float) -> Iterator[SpatialEntry]:
        """Entries whose contour exactly covers (x, y); counts the scan."""
        rows = self._rows_at(x_m, y_m)
        self.queries += 1
        self.candidates_scanned += len(rows)
        for j in rows:
            entry = self._entries[j]
            if entry.covers(x_m, y_m):
                yield entry

    def covering_rect(
        self, x0_m: float, y0_m: float, x1_m: float, y1_m: float
    ) -> Iterator[SpatialEntry]:
        """Entries whose contour intersects the rectangle; counts the scan.

        The area-query twin of :meth:`covering`: an entry qualifies when
        any point of ``[x0, x1] x [y0, y1]`` lies inside its contour
        (exact test via the clamped nearest point).  Each contour is
        scanned — and yielded — once, in insertion order, however many
        of the rectangle's cells it lies in or times it was inserted.
        """
        cells = np.array(
            [[*self.cell_of(x0_m, y0_m), *self.cell_of(x1_m, y1_m)]], dtype=float
        )
        rows = np.flatnonzero(self._candidates_of(cells, self._bound[:, :, None])[:, 0])
        self.queries += 1
        self.candidates_scanned += rows.size
        x, y = self._centers[:, rows].tolist()
        for j, cx, cy, radius in zip(
            rows.tolist(), x, y, self._radius[rows].tolist()
        ):
            if circle_intersects_rect(cx, cy, radius, x0_m, y0_m, x1_m, y1_m):
                yield self._entries[j]

    def occupied_in_rects(
        self, rects: np.ndarray, t_us: float, segments: np.ndarray | None = None
    ) -> tuple[list[frozenset[int]], list[int]]:
        """:meth:`occupied_masks` as one channel set and one candidate
        count per rectangle."""
        masks, scanned = self.occupied_masks(rects, t_us, segments)
        sets = [frozenset(c for c in range(63) if k >> c & 1) for k in masks.tolist()]
        return sets, scanned.tolist()

    def occupied_masks(
        self, rects: np.ndarray, t_us: float, segments: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """The cache-miss kernel: the occupied channels of many rectangles.

        *rects* is (m, 4): ``x0, y0, x1, y1`` per row, with ``x0 <= x1``
        and ``y0 <= y1``; *segments* names each rectangle's segment
        (None: segment 0).  A rectangle's occupied channels are those of
        its segment's entries active at *t_us* whose contour intersects
        it — the entries :meth:`covering_rect` yields, filtered by
        ``active_at``.  Returns each rectangle's occupied channels as an
        int64 bitmask (bit *c* set: channel *c* occupied; channels
        0..62) and its candidate count.  ``queries`` and
        ``candidates_scanned`` move exactly as m :meth:`covering_rect`
        calls would move them.

        One array pass decides every rectangle x row pair of the
        rectangle's segment: on a stacked index each rectangle gathers
        its segment's rows (padded to the widest segment and masked),
        on a one-segment index the columns are used in place.  The cell
        floor is :meth:`cell_of`'s in the segment's edge
        (``np.floor_divide`` is Python's float ``//``; the clamp is
        folded into the open border ranges); the nearest point's
        squared distance meets the row's band (:func:`_verdicts`), and
        a pair inside it is re-decided by :func:`circle_intersects_rect`
        itself, so each verdict is that predicate's, bit for bit.  A
        mask ors the channel bits of the hit rows whose object is
        active; ``active_at`` is asked once per sim time of each object
        that intersects some rectangle (an insertion forgets the
        answers).
        """
        rects = np.asarray(rects, dtype=float)
        m = len(rects)
        self.queries += m
        masks = np.zeros(m, dtype=np.int64)
        scanned = np.zeros(m, dtype=np.int64)
        if not (m and self._width):
            return masks, scanned
        if segments is None:
            segments = np.zeros(m, dtype=np.intp)
        if t_us != self._asked_at:
            self._asked_at = t_us
            self._active = np.full(len(self._objects), -1, dtype=np.int8)
        step = max(1, _PAIRS_PER_PASS // self._width)
        for lo in range(0, m, step):
            part = slice(lo, lo + step)
            masks[part], scanned[part] = self._occupied_pass(
                rects[part], segments[part], t_us
            )
        self.candidates_scanned += int(scanned.sum())
        return masks, scanned

    def _occupied_pass(
        self, rects: np.ndarray, segments: np.ndarray, t_us: float
    ) -> tuple[np.ndarray, np.ndarray]:
        # Pair arrays are (w, m), rows by rectangles: the rectangles run
        # along the contiguous axis, so each ufunc loop is a long one.
        bits, obj = self._ints
        if len(self._sides) == 1:
            # Every rectangle meets every row: the columns in place.
            rows, table = None, self._table[:8, :, None]
            cells = np.floor_divide(rects, self.cell_m)
        else:
            lo = self._starts[segments]
            count = self._starts[segments + 1] - lo
            span = np.arange(count.max())[:, None]
            rows = np.minimum(lo + span, len(self._entries) - 1)
            table = self._table[:8].take(rows, axis=1)
            cells = np.floor_divide(rects, self._edges[segments][:, None])
        candidate = self._candidates_of(cells, table[2:6])
        if rows is not None:
            candidate &= span < count
        # (2, w, m): each center minus its nearest point of each rectangle.
        centers = table[0:2]
        bounds = np.ascontiguousarray(rects.T)[:, None]
        offset = np.maximum(centers, bounds[:2])
        np.minimum(offset, bounds[2:], out=offset)
        np.subtract(centers, offset, out=offset)
        inside, decided = _verdicts(offset, table[6:8])
        hit = candidate & inside
        if not decided.all():
            for j, i in zip(*np.nonzero(candidate & ~decided)):
                row = j if rows is None else rows[j, i]
                x, y, r = self._table[(0, 1, 8), row].tolist()
                hit[j, i] = circle_intersects_rect(x, y, r, *rects[i].tolist())
        # Each object some rectangle hits is asked once per sim time
        # (its rows in several segments, and later passes and calls at
        # the same time, share the answer); a row's bit counts only
        # while its object is active.
        active = self._active
        ask = np.zeros(len(active), dtype=bool)
        ask[obj[hit.any(1)] if rows is None else obj[rows[hit]]] = True
        for o in np.flatnonzero(ask & (active < 0)).tolist():
            active[o] = self._objects[o].active_at(t_us)
        live = np.where(active[obj] > 0, bits, 0)
        live = live[:, None] if rows is None else live.take(rows)
        masks = np.bitwise_or.reduce(np.where(hit, live, 0), axis=0)
        return masks, np.add.reduce(candidate, 0)
