"""The geolocation database service façade: cell-granular cached queries.

:class:`WhiteSpaceDatabase` is what a city of APs — and a street of
roaming clients — talks to.  It answers availability queries off the
:class:`GridIndex` (never a full incumbent scan), memoizes responses in
a TTL + LRU cache, accepts live microphone registrations that
surgically invalidate the cached responses inside the new protection
zone, and counts queries/hits/misses/expirations/invalidations so
benchmarks can report cache behavior alongside throughput.

**Cell-granular response protocol.**  Real WSDB providers serve *area*
responses: the FCC requires a device to re-query after moving ~100 m,
so a response is computed for — and valid anywhere inside — a whole
quantization square of ``cache_resolution_m`` on a side.
:meth:`channels_in_cells` (one response per cell of a batch;
:meth:`channels_in_cell` is its one-cell form) is that protocol's
primitive: it computes the channels free throughout each square (a
channel is denied when any active incumbent's protected contour
intersects the square — the conservative area semantics a protection
regime requires), every miss of a call in one batched index pass
(:meth:`GridIndex.occupied_in_rects`), and caches the response under
the (cell, TTL bucket) key.  :meth:`channels_at` and
:meth:`channels_at_many` are point-shaped conveniences that quantize
the coordinate and ride the cell path, which is why dense or mobile
deployments hit the cache instead of recomputing per coordinate.

Because the computation itself is per-cell (not per first-querying
coordinate), a response is a pure function of (metro state, cell,
query time): cached and cache-disabled (``cache_capacity=0``) services
return **identical answers** for the same query sequence.  The one
remaining cache-visible effect is the TTL staleness contract: within a
TTL bucket a cached response may lag a mic *session* edge of an
already-registered incumbent by up to the TTL, while a cache-disabled
service re-evaluates the schedule at every query.  An explicit
:meth:`register_mic` invalidates the affected cells immediately, so
newly registered incumbents are never served stale.

Invalidation is cell-exact and time-aware: a registration drops exactly
the cached responses whose quantization square intersects the new
protection zone *and* whose TTL bucket overlaps one of the mic's
sessions — a response whose bucket ends before the session starts (or
begins after it ends) is still valid for every query it can legally
serve.  Expired buckets are purged as simulation time advances, so the
LRU holds live responses only.

Determinism: for a fixed query sequence the service is a pure function
of (metro state, sequence) — the property the citywide and roaming run
kinds' byte-identical parallel/sequential contract leans on.  Shrinking
``cache_resolution_m`` toward zero degenerates the protocol to
per-coordinate responses (every query point its own cell) — the
baseline the roaming benchmark compares against.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.errors import SpectrumMapError
from repro.spectrum.spectrum_map import SpectrumMap
from repro.wsdb.index import GridIndex, circle_intersects_cell
from repro.wsdb.model import Metro, MicRegistration

__all__ = [
    "AvailabilityService",
    "WhiteSpaceDatabase",
    "WsdbStats",
    "default_cell_m",
    "quantize_cell",
    "ttl_bucket",
]

#: Default cache TTL (simulation microseconds): 60 s of validity before a
#: device must re-query, a compressed stand-in for the FCC's daily
#: re-check requirement.
DEFAULT_TTL_US = 60_000_000.0

#: Default response-cell edge (meters).  The FCC requires devices to
#: re-query after moving 100 m; one response covers — and is valid
#: throughout — a 100 m quantization square.
DEFAULT_CACHE_RESOLUTION_M = 100.0

#: Default LRU capacity (responses).
DEFAULT_CACHE_CAPACITY = 8_192


def quantize_cell(
    x_m: float, y_m: float, resolution_m: float
) -> tuple[int, int]:
    """The quantization cell containing (x, y) at *resolution_m*.

    Floor division, so negative coordinates land in negative cells.
    The one home of the cell convention: the service's cache keys, the
    cluster router's routing, the mobility re-check rule, and the push
    registry's subscriptions must all quantize identically or cached
    responses, notifications, and re-queries stop lining up.
    """
    return (
        int(math.floor(x_m / resolution_m)),
        int(math.floor(y_m / resolution_m)),
    )


def ttl_bucket(t_us: float, ttl_us: float) -> int:
    """The TTL validity bucket containing *t_us*.

    The one home of the bucket convention: the service's cache keys,
    the frontend's stale-store validity check, and the clients'
    TTL-expiry re-check trigger must agree on where a response's
    validity window ends.
    """
    return int(t_us // ttl_us)


class AvailabilityService(Protocol):
    """The query surface a white-space device (or AP driver) talks to.

    Both :class:`WhiteSpaceDatabase` and the cluster's
    :class:`~repro.wsdb.cluster.router.ShardRouter` satisfy this; the
    citywide helpers (``assign_ap`` / ``boot_aps`` /
    ``displace_covered_aps``) are written against it, which is what
    lets one deployment driver run on either service tier.
    """

    metro: Metro

    def channels_at(
        self, x_m: float, y_m: float, t_us: float = 0.0
    ) -> tuple[int, ...]: ...

    def channels_at_many(
        self, points: Sequence[tuple[float, float]], t_us: float = 0.0
    ) -> list[tuple[int, ...]]: ...

    def spectrum_map_at(
        self, x_m: float, y_m: float, t_us: float = 0.0
    ) -> SpectrumMap: ...

    def zone_affects(
        self, registration: MicRegistration, x_m: float, y_m: float
    ) -> bool: ...


def default_cell_m(metro: Metro) -> float:
    """The default spatial-index cell edge for *metro*'s incumbents.

    ~The mean TV contour radius — a reasonable pruning granularity —
    falling back to a sixteenth of the plane when the dial is empty.
    The one home of this heuristic: the service uses it directly and
    the cluster's :class:`~repro.wsdb.cluster.router.ShardRouter`
    scales it down by ``sqrt(K)`` per shard, so the two stay in
    lock-step if it is ever re-tuned.
    """
    radii = [site.radius_m for site in metro.sites]
    return (sum(radii) / len(radii)) if radii else metro.extent_m / 16


@dataclass
class WsdbStats:
    """Service counters for benchmarking the query path.

    Attributes:
        queries: availability queries answered (point or cell).
        cache_hits / cache_misses: response-cache outcomes.
        evictions: LRU capacity evictions (live responses displaced).
        expirations: responses purged because their TTL bucket ended
            (dead responses dropped as simulation time advances).
        invalidations: live cached responses dropped by mic
            registrations.
        mic_registrations: registrations accepted.
        candidates_scanned: incumbents inspected by the spatial index
            on the service's own query path (the full-scan equivalent
            is ``queries * incumbents``); direct ``db.index`` use is
            not counted here.
    """

    queries: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0
    mic_registrations: int = 0
    candidates_scanned: int = 0

    @property
    def hit_rate(self) -> float:
        """Cache hits over all queries (0 when nothing was asked)."""
        return self.cache_hits / self.queries if self.queries else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """Plain-data snapshot (for probes and benchmark JSON)."""
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "evictions": self.evictions,
            "expirations": self.expirations,
            "invalidations": self.invalidations,
            "mic_registrations": self.mic_registrations,
            "candidates_scanned": self.candidates_scanned,
            "hit_rate": self.hit_rate,
        }


class _Pending:
    """A missed cell's cache placeholder until its batch computes it.

    ``slot`` is the miss's position in the batch's list of misses.
    """

    __slots__ = ("slot",)

    def __init__(self, slot: int):
        self.slot = slot


class WhiteSpaceDatabase:
    """A queryable, cacheable geolocation white-space database.

    Args:
        metro: the incumbent ground truth (sites + registrations).
        cell_m: spatial-index cell edge (None: ~the mean TV contour
            radius, a reasonable pruning granularity).
        ttl_us: response validity window in simulation time.
        cache_resolution_m: response-cell edge — one response covers a
            whole ``cache_resolution_m`` quantization square.
        cache_capacity: LRU capacity; 0 disables response caching (the
            spatial index still serves every query, and answers are
            identical to a caching service's).
    """

    def __init__(
        self,
        metro: Metro,
        cell_m: float | None = None,
        ttl_us: float = DEFAULT_TTL_US,
        cache_resolution_m: float = DEFAULT_CACHE_RESOLUTION_M,
        cache_capacity: int = DEFAULT_CACHE_CAPACITY,
    ):
        if ttl_us <= 0:
            raise SpectrumMapError(f"ttl_us must be > 0, got {ttl_us!r}")
        if cache_resolution_m <= 0:
            raise SpectrumMapError(
                f"cache_resolution_m must be > 0, got {cache_resolution_m!r}"
            )
        if cache_capacity < 0:
            raise SpectrumMapError(
                f"cache_capacity must be >= 0, got {cache_capacity!r}"
            )
        self.metro = metro
        if cell_m is None:
            cell_m = default_cell_m(metro)
        self.index = GridIndex(metro.extent_m, cell_m)
        self.index.extend(metro.sites)
        self.index.extend(metro.registrations)
        self.ttl_us = ttl_us
        self.cache_resolution_m = cache_resolution_m
        self.cache_capacity = cache_capacity
        # The response LRU, least recently used first.  A key is the
        # plain tuple (qx, qy, bucket): quantization cell + TTL bucket.
        # A tuple hashes and compares in C, which is most of what a
        # cache hit costs on the re-check path.
        self._cache: OrderedDict[tuple[int, int, int], tuple[int, ...]] = (
            OrderedDict()
        )
        self._latest_bucket = 0
        # Every channel of the dial, for turning occupied sets into
        # free-channel responses.
        self._channels = frozenset(range(metro.num_channels))
        self.stats = WsdbStats()
        # The last query call's per-cell outcomes, one (cache_hit,
        # candidates_scanned) entry per requested cell in request
        # order.  The running stats totals can't tell a caller (e.g. a
        # span recorder) what *this* lookup did — the outcomes can.
        self.last_outcomes: tuple[tuple[bool, int], ...] = ()

    # -- cache plumbing ------------------------------------------------------

    def cell_of(self, x_m: float, y_m: float) -> tuple[int, int]:
        """The quantization cell containing (x, y).

        Floor division, so negative coordinates land in negative cells
        (cell (-1, -1) spans ``[-resolution, 0)`` on each axis) rather
        than sharing cell (0, 0) with the origin's square.
        """
        return quantize_cell(x_m, y_m, self.cache_resolution_m)

    def _store(
        self, key: tuple[int, int, int], channels: tuple[int, ...]
    ) -> None:
        if self.cache_capacity == 0:
            return
        self._cache[key] = channels
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_capacity:
            self._cache.popitem(last=False)
            self.stats.evictions += 1

    def _purge_expired(self, bucket: int) -> None:
        """Drop responses from TTL buckets wholly before *bucket*.

        Expired responses can never be served again (their bucket is
        part of the cache key), but left in place they occupy LRU
        capacity — evicting live responses — and are scanned by every
        ``register_mic`` invalidation pass.  Purged on the query path
        whenever the observed TTL bucket advances; queries are the
        service's only clock, so ``register_mic`` relies on this
        rather than purging itself.
        """
        if bucket <= self._latest_bucket:
            return
        self._latest_bucket = bucket
        stale = [key for key in self._cache if key[2] < bucket]
        for key in stale:
            del self._cache[key]
        self.stats.expirations += len(stale)

    # -- queries -------------------------------------------------------------

    def channels_in_cell(
        self, qx: int, qy: int, t_us: float = 0.0
    ) -> tuple[int, ...]:
        """The cell-granular response: channels free throughout a cell.

        The response is valid anywhere inside quantization cell (qx, qy)
        for the remainder of the TTL bucket containing *t_us*; it is
        cached under that (cell, bucket) key.  A one-cell
        :meth:`channels_in_cells` batch.
        """
        return self.channels_in_cells(((qx, qy),), t_us)[0]

    def channels_in_cells(
        self,
        cells: Sequence[tuple[int, int]],
        t_us: float = 0.0,
    ) -> list[tuple[int, ...]]:
        """Batch cell-granular responses: one per cell, in cell order.

        The protocol primitive every query path rides.  A batch leaves
        exactly the answers, cache recency order, and counter totals of
        a one-cell-at-a-time :meth:`channels_in_cell` loop over the same
        sequence (duplicates included; each counts as one query).  It
        runs in two passes:

        1. The cells walk the LRU in order.  A miss stores a per-miss
           placeholder, so a repeat of the cell later in the batch is a
           hit, and evictions, recency and counters run as in the loop.
        2. One :meth:`GridIndex.occupied_in_rects` call computes every
           miss; each answer is written over its placeholder if the key
           still holds it (assigning to a cached key does not move it).

        The per-call overhead is paid once: the TTL purge runs once
        (every cell in a batch shares *t_us*'s bucket), the stats
        counters are flushed in one pass, and the index is entered
        once.  The roaming loop sends a tick's re-checks as one batch
        in client order and the cluster frontend one batch per shard
        per burst.
        """
        self.stats.queries += len(cells)
        bucket = ttl_bucket(t_us, self.ttl_us)
        self._purge_expired(bucket)
        cache = self._cache
        responses: list = []
        outcomes: list = []
        missed: list[tuple[tuple[int, int, int], _Pending]] = []
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
            answers, scanned = self._compute_misses(missed, t_us)
            responses = [
                answers[r.slot] if type(r) is _Pending else r for r in responses
            ]
            scans = iter(scanned)
            outcomes = [
                (False, next(scans)) if o is None else o for o in outcomes
            ]
        self.last_outcomes = tuple(outcomes)
        return responses

    def _compute_misses(
        self, missed: list[tuple[tuple[int, int, int], _Pending]], t_us: float
    ) -> tuple[list[tuple[int, ...]], list[int]]:
        """Channels free throughout each missed cell at *t_us*.

        Conservative area semantics: a channel is denied when any
        active incumbent's contour intersects the cell square, so the
        response is safe to act on from any coordinate inside the cell.
        Each answer replaces its miss's placeholder if that is still
        cached.  Returns (answers, candidates scanned), one per miss.
        """
        res = self.cache_resolution_m
        rects = []
        for (qx, qy, _), _ in missed:
            x0, y0 = qx * res, qy * res
            rects.append((x0, y0, x0 + res, y0 + res))
        occupied, scanned = self.index.occupied_in_rects(np.array(rects), t_us)
        # Counted from the kernel's return (not the index's running
        # total): the index is a public attribute, and direct use of it
        # must not leak into the service's own counters.
        self.stats.candidates_scanned += sum(scanned)
        cache = self._cache
        channels = self._channels
        free_of: dict[frozenset[int], tuple[int, ...]] = {}
        answers = []
        for (key, pending), occ in zip(missed, occupied):
            free = free_of.get(occ)
            if free is None:
                free = free_of[occ] = tuple(sorted(channels - occ))
            answers.append(free)
            if cache.get(key) is pending:
                cache[key] = free
        return answers, scanned

    def channels_at(
        self, x_m: float, y_m: float, t_us: float = 0.0
    ) -> tuple[int, ...]:
        """Available (incumbent-free) UHF channels at (x, y) at *t_us*.

        Served from the cell-granular path: the answer is the response
        for the whole quantization square containing (x, y).
        """
        return self.channels_in_cell(*self.cell_of(x_m, y_m), t_us)

    def channels_at_many(
        self,
        points: Sequence[tuple[float, float]],
        t_us: float = 0.0,
    ) -> list[tuple[int, ...]]:
        """Batch availability: one response per point, in point order.

        Each point counts as one query; points sharing a quantization
        cell share its cached cell response.  Rides the
        :meth:`channels_in_cells` batch path (one stats pass).
        """
        cell_of = self.cell_of
        return self.channels_in_cells(
            [cell_of(x, y) for x, y in points], t_us
        )

    def spectrum_map_at(
        self, x_m: float, y_m: float, t_us: float = 0.0
    ) -> SpectrumMap:
        """The availability response as an occupancy bit-vector."""
        return SpectrumMap.from_free(
            self.channels_at(x_m, y_m, t_us), self.metro.num_channels
        )

    # -- updates -------------------------------------------------------------

    def _zone_touches_cell(
        self, registration: MicRegistration, qx: int, qy: int
    ) -> bool:
        """True when the protection zone intersects quantization cell (qx, qy).

        Uses the predicate the miss kernel's verdicts equal bit for bit
        (``circle_intersects_rect``; see
        :meth:`GridIndex.occupied_in_rects`), so invalidation drops
        exactly the cells whose responses the new zone can change.
        """
        return circle_intersects_cell(
            registration.x_m,
            registration.y_m,
            registration.radius_m,
            qx,
            qy,
            self.cache_resolution_m,
        )

    def zone_affects(
        self, registration: MicRegistration, x_m: float, y_m: float
    ) -> bool:
        """True when *registration* can change the response served at (x, y).

        Cell-granular responses deny a channel anywhere in a cell the
        zone touches, so protocol-level coverage checks (is this AP's
        response invalidated by the new mic?) must use this, not point
        containment — a device just outside the zone whose cell touches
        it still receives the denying response.
        """
        qx, qy = self.cell_of(x_m, y_m)
        return self._zone_touches_cell(registration, qx, qy)

    def _zone_touches_key_cell(
        self, registration: MicRegistration, key: tuple[int, int, int]
    ) -> bool:
        """True when *registration* can change the response cached at *key*.

        Cell-exact in space and time-aware in the TTL dimension: a
        cached response is only ever served for query times inside its
        own bucket, so a bucket that does not overlap any of the mic's
        sessions — wholly before the session starts, or wholly after it
        ends — holds a response the registration cannot change, and
        invalidating it would only force a recompute to the same
        answer (and misreport ``stats.invalidations``).
        """
        bucket_start = key[2] * self.ttl_us
        bucket_end = bucket_start + self.ttl_us
        # Both intervals are half-open ([start, end) sessions against
        # [bucket_start, bucket_end) buckets), so both edges test
        # strictly: a session ending exactly at the bucket boundary is
        # never active inside the bucket.
        if not any(
            session.start_us < bucket_end and session.end_us > bucket_start
            for session in registration.microphone.sessions
        ):
            return False
        return self._zone_touches_cell(registration, key[0], key[1])

    def register_mic(self, registration: MicRegistration) -> int:
        """Accept a mic registration; invalidate the affected responses.

        Every cached response whose quantization square intersects the
        new protection zone — in a TTL bucket overlapping one of the
        mic's sessions — is dropped (any query in such a cell and
        bucket may now get a different answer).  Returns the number of
        invalidated responses.
        """
        self.metro.add_registration(registration)
        self.index.insert(registration)
        self.stats.mic_registrations += 1
        # Queries purge buckets behind the observed clock as they
        # advance it, so the scan below visits at most the entries at
        # or after the last observed bucket (out-of-order query times
        # can park older entries here, but the time-aware check still
        # judges them correctly).
        stale = [
            key
            for key in self._cache
            if self._zone_touches_key_cell(registration, key)
        ]
        for key in stale:
            del self._cache[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def publish_metrics(self, telemetry) -> None:
        """Publish the service counters into a sim-clock registry.

        Integer counters land as ``wsdb_*`` counters, ratio properties
        as gauges (see ``MetricsRegistry.record_stats``).  Cache
        occupancy rides along as an instantaneous gauge.
        """
        if not telemetry.enabled:
            return
        telemetry.record_stats("wsdb", self.stats.as_dict())
        telemetry.gauge("wsdb_cached_responses").set(float(len(self._cache)))
