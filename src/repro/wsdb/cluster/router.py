"""Sharding the metro plane: K segments of one cache over one stacked index.

:class:`ShardRouter` partitions the plane into K **cell-aligned**
territories (shard boundaries fall on quantization-cell edges, so one
response cell never straddles shards) and routes every cell to exactly
one shard by pure coordinate arithmetic.  A shard is a *segment* of the
:class:`~repro.wsdb.service.SegmentedService` slot table — its own
capacity, LRU order, TTL purge and counters — and a segment of one
stacked :class:`~repro.wsdb.index.GridIndex` that holds only the
incumbents whose contour reaches its territory, at a cell edge
``sqrt(K)`` finer per axis than the monolith's (equal bucket budget).
A batch is grouped by shard and answered in one cache pass and one
miss-kernel call.

The sharding win still shows in ``candidates_scanned``: a miss scans
its own shard's finer, smaller subset, so ``candidates_scanned /
queries`` shrinks as K grows (``bench_wsdb_cluster`` measures it).
Correctness is unchanged: border territories extend off-plane, so
clamped routing and off-plane contours stay exact, and the kernel
decides each contour by ``circle_intersects_rect`` exactly as
``GridIndex.covering_rect`` does — so a shard's cell response equals
the unsharded database's, bit for bit.  All shards answer in one
:class:`~repro.wsdb.service.ResponseTable`.

Mic registrations fan out to every shard whose territory the zone
touches (each invalidates its own cached responses) and to the base
metro, which ground-truth compliance scoring reads.  The router is an
:class:`~repro.wsdb.service.AvailabilityService`, so the citywide
helpers and :func:`~repro.wsdb.service.free_channels` run against it
unchanged.
"""

from __future__ import annotations

import math
from bisect import bisect_right

import numpy as np

from repro.errors import SpectrumMapError
from repro.wsdb.index import GridIndex, circle_intersects_rect
from repro.wsdb.model import Metro, MicRegistration
from repro.wsdb.service import (
    DEFAULT_CACHE_CAPACITY,
    DEFAULT_CACHE_RESOLUTION_M,
    DEFAULT_TTL_US,
    SegmentedService,
    WsdbStats,
    default_cell_m,
)

__all__ = ["ShardRouter", "ShardTerritory", "cells_per_side", "shard_grid"]


def cells_per_side(extent_m: float, resolution_m: float) -> int:
    """Response cells per axis of an ``extent_m`` plane.

    The one home of the cell-count convention: the router partitions
    this many cells into shard columns/rows, and the querystorm kind's
    eager feasibility check must agree with it exactly — a spec that
    validates must never fail shard construction mid-run.
    """
    return max(1, math.ceil(extent_m / resolution_m))


def shard_grid(num_shards: int) -> tuple[int, int]:
    """The (columns, rows) layout for *num_shards* shards.

    Columns x rows equals *num_shards* exactly: columns is the largest
    divisor not exceeding the square root, so square counts tile as
    squares (4 -> 2x2, 16 -> 4x4) and awkward counts degrade to the
    most balanced rectangle available (6 -> 2x3, prime K -> 1xK
    stripes).  Deterministic, so routing is a pure function of the
    shard count.
    """
    if num_shards < 1:
        raise SpectrumMapError(f"num_shards must be >= 1, got {num_shards!r}")
    cols = int(math.isqrt(num_shards))
    while num_shards % cols:
        cols -= 1
    return cols, num_shards // cols


class ShardTerritory:
    """One shard's slice of the plane, in quantization-cell units.

    Attributes:
        shard_id: index into the router's shard list.
        cell_x0 / cell_x1, cell_y0 / cell_y1: half-open cell ranges
            ``[cell_x0, cell_x1)`` along each axis.
        x0_m / x1_m, y0_m / y1_m: the territory rectangle in meters —
            border territories extend to infinity outward, so clamped
            routing of off-plane coordinates stays consistent with the
            incumbent subset indexed here.
    """

    def __init__(
        self,
        shard_id: int,
        cell_range_x: tuple[int, int],
        cell_range_y: tuple[int, int],
        resolution_m: float,
        border_west: bool,
        border_east: bool,
        border_south: bool,
        border_north: bool,
    ):
        self.shard_id = shard_id
        self.cell_x0, self.cell_x1 = cell_range_x
        self.cell_y0, self.cell_y1 = cell_range_y
        self.x0_m = -math.inf if border_west else self.cell_x0 * resolution_m
        self.x1_m = math.inf if border_east else self.cell_x1 * resolution_m
        self.y0_m = -math.inf if border_south else self.cell_y0 * resolution_m
        self.y1_m = math.inf if border_north else self.cell_y1 * resolution_m

    def touches_zone(self, x_m: float, y_m: float, radius_m: float) -> bool:
        """True when a circular zone intersects this territory."""
        return circle_intersects_rect(
            x_m, y_m, radius_m, self.x0_m, self.y0_m, self.x1_m, self.y1_m
        )


class ShardRouter(SegmentedService):
    """K cell-aligned shards, each a segment of one response cache.

    Args:
        metro: the full-metro ground truth.  Kept as ``self.metro`` for
            compliance scoring; each shard indexes only the incumbents
            whose contour intersects its territory.
        num_shards: shard count (laid out via :func:`shard_grid`).
        ttl_us / cache_resolution_m / cache_capacity: per-shard cache
            parameters (every shard gets the full ``cache_capacity`` —
            capacity scales out with K, which is the point of a service
            tier).
        cell_m: per-shard spatial-index cell edge.  None picks the
            service's own default on each shard's subset, scaled down
            by ``sqrt(K)`` (so a 1-shard router defaults to exactly the
            plain database's granularity).
    """

    def __init__(
        self,
        metro: Metro,
        num_shards: int,
        ttl_us: float = DEFAULT_TTL_US,
        cache_resolution_m: float = DEFAULT_CACHE_RESOLUTION_M,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
        cell_m: float | None = None,
    ):
        cols, rows = shard_grid(num_shards)
        super().__init__(
            metro, ttl_us, cache_resolution_m, cache_capacity, num_shards
        )
        cells = cells_per_side(metro.extent_m, cache_resolution_m)
        if cols > cells or rows > cells:
            raise SpectrumMapError(
                f"cannot split {cells} cells per axis into a "
                f"{cols}x{rows} shard grid; lower num_shards or shrink "
                "cache_resolution_m"
            )
        self.num_shards = num_shards
        self.grid = (cols, rows)
        self.cells_per_side = cells
        # Balanced cell-aligned partition: axis boundaries at
        # floor(i * cells / groups), so group sizes differ by at most
        # one cell and every boundary is a cell edge.
        self._x_bounds = [cells * i // cols for i in range(cols + 1)]
        self._y_bounds = [cells * j // rows for j in range(rows + 1)]
        self.territories: tuple[ShardTerritory, ...] = tuple(
            ShardTerritory(
                shard_id=j * cols + i,
                cell_range_x=(self._x_bounds[i], self._x_bounds[i + 1]),
                cell_range_y=(self._y_bounds[j], self._y_bounds[j + 1]),
                resolution_m=cache_resolution_m,
                border_west=i == 0,
                border_east=i == cols - 1,
                border_south=j == 0,
                border_north=j == rows - 1,
            )
            for j in range(rows)
            for i in range(cols)
        )
        # Each shard indexes the sites, then the registrations, whose
        # contour reaches its territory.
        subsets = [
            [
                [e for e in entries if t.touches_zone(e.x_m, e.y_m, e.radius_m)]
                for entries in (metro.sites, metro.registrations)
            ]
            for t in self.territories
        ]
        # None: the service's own default heuristic on each subset,
        # scaled down by sqrt(K) (equal bucket budget, finer pruning).
        self.index = GridIndex(metro.extent_m, [
            default_cell_m(Metro(metro.extent_m, metro.num_channels, sites))
            / math.sqrt(num_shards) if cell_m is None else cell_m
            for sites, _ in subsets
        ])
        for shard, (sites, registrations) in enumerate(subsets):
            self.index.extend((*sites, *registrations), shard)
        #: Registrations accepted at the router (each may fan out to
        #: several shards; the per-shard ``mic_registrations`` counters
        #: sum to the fan-out, not to this).
        self.mic_registrations = 0
        #: Shard batches answered by :meth:`response_ids_in_cells`: the
        #: distinct shards each batch touched, summed.
        self.shard_calls = 0

    # -- routing -------------------------------------------------------------

    def _axis_group(self, cell: int, bounds: list[int]) -> int:
        # Clamp off-plane cells to the border groups; the border
        # territories extend to infinity on those sides, so the clamped
        # shard indexes every contour such a cell's response can see.
        clamped = min(self.cells_per_side - 1, max(0, cell))
        return bisect_right(bounds, clamped) - 1

    def shard_of_cell(self, qx: int, qy: int) -> int:
        """The shard serving quantization cell (qx, qy)."""
        cols, _ = self.grid
        return (
            self._axis_group(qy, self._y_bounds) * cols
            + self._axis_group(qx, self._x_bounds)
        )

    def shards_of_cells(self, qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
        """The serving shard of every cell ``(qx[i], qy[i])``, as an array.

        :meth:`shard_of_cell` elementwise: the same clamp to the plane's
        cells, then ``searchsorted(side="right")`` over the axis bounds
        (``bisect_right``'s convention).
        """
        last = self.cells_per_side - 1
        gx, gy = (
            np.searchsorted(bounds, np.minimum(np.maximum(q, 0), last), "right")
            for bounds, q in ((self._x_bounds, qx), (self._y_bounds, qy))
        )
        return (gy - 1) * self.grid[0] + (gx - 1)

    def shard_of(self, x_m: float, y_m: float) -> int:
        """The shard serving coordinate (x, y)."""
        return self.shard_of_cell(*self.cell_of(x_m, y_m))

    def _segments_of(self, cells: np.ndarray) -> tuple[np.ndarray, list, list]:
        """Group a batch by owning shard with a stable sort, so each
        shard sees its cells in request order; each shard touched counts
        one shard call.  The sort runs on the narrowest unsigned type
        that holds a shard id: up to 16 bits, numpy's stable sort is a
        radix sort."""
        owner = self.shards_of_cells(cells[:, 0], cells[:, 1])
        counts = np.bincount(owner, minlength=self.num_shards)
        shards = np.flatnonzero(counts)
        self.shard_calls += len(shards)
        order = owner.astype(np.min_scalar_type(self.num_shards - 1)).argsort(
            kind="stable"
        )
        return order, shards.tolist(), counts[shards].tolist()

    # -- updates -------------------------------------------------------------

    def shards_touching_zone(
        self, x_m: float, y_m: float, radius_m: float
    ) -> tuple[int, ...]:
        """Shard ids whose territory a circular zone intersects, ascending."""
        return tuple(
            territory.shard_id
            for territory in self.territories
            if territory.touches_zone(x_m, y_m, radius_m)
        )

    def register_mic(self, registration: MicRegistration) -> int:
        """Fan a registration out to every shard its zone touches.

        The base metro records it too (ground-truth compliance scoring
        reads ``self.metro``, never a shard).  Returns the total cached
        responses invalidated across shards.
        """
        self.metro.add_registration(registration)
        self.mic_registrations += 1
        shards = self.shards_touching_zone(
            registration.x_m, registration.y_m, registration.radius_m
        )
        self.index.extend([registration] * len(shards), shards)
        return self._invalidate(registration, list(shards))

    # -- stats ---------------------------------------------------------------

    def aggregate_stats(self) -> WsdbStats:
        """Shard counters summed into one :class:`WsdbStats`.

        Note ``mic_registrations`` here is the *fan-out* (one zone
        touching three shards counts three); the router-level
        acceptance count is :attr:`mic_registrations`.
        """
        return WsdbStats(*self._counts.sum(axis=0).tolist())

    def candidates_per_query(self, stats: WsdbStats | None = None) -> float:
        """Mean incumbents scanned per query across the cluster — the
        sharding headline (0 when nothing was asked).

        Pass an already-aggregated *stats* to reuse a snapshot; the
        default takes a fresh one.
        """
        stats = self.aggregate_stats() if stats is None else stats
        return stats.candidates_scanned / stats.queries if stats.queries else 0.0

    def stats_dict(self) -> dict[str, float | int]:
        """Aggregate snapshot plus router-level fields (for probes)."""
        stats = self.aggregate_stats()
        snapshot = stats.as_dict()
        snapshot["registration_fanout"] = snapshot["mic_registrations"]
        snapshot["mic_registrations"] = self.mic_registrations
        snapshot["candidates_per_query"] = self.candidates_per_query(stats)
        return snapshot

    def per_shard_stats(self) -> tuple[dict[str, float | int], ...]:
        """One :meth:`WsdbStats.as_dict` snapshot per shard, in shard order."""
        return tuple(WsdbStats(*row).as_dict() for row in self._counts.tolist())

    def publish_metrics(self, telemetry) -> None:
        """Publish the cluster counters into a sim-clock registry.

        The aggregate snapshot lands under ``wsdb_*`` (same names as a
        monolithic database, so scalar-vs-cluster dashboards line up);
        per-shard query/hit/scan counters ride along as labeled series
        (``wsdb_queries{shard="k"}``).
        """
        if not telemetry.enabled:
            return
        telemetry.record_stats("wsdb", self.stats_dict())
        for shard_id, stats in enumerate(self.per_shard_stats()):
            for field in ("queries", "cache_hits", "candidates_scanned"):
                telemetry.counter(f"wsdb_{field}", shard=shard_id).inc(
                    int(stats[field])
                )
