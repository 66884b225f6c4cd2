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
quantization square of ``cache_resolution_m`` on a side.  Each service
tier has one query primitive, ``response_ids_in_cells`` (an (n, 2)
cell array in, a :class:`Lookup` of one response id, cache outcome and
scan count per cell out).  A response is the channels free throughout
each square (a channel is denied when any active incumbent's protected
contour intersects the square — the conservative area semantics a
protection regime requires), every miss of a call computed in one
batched index pass (:meth:`GridIndex.occupied_masks`), and cached
under the (cell, TTL bucket) key.  :func:`free_channels` is the one
point-shaped, tuple-valued form: it quantizes coordinates and rides
the primitive, which is why dense or mobile deployments hit the cache
instead of recomputing per coordinate.

**Response ids.**  Responses are interned in a :class:`ResponseTable`:
each distinct channel tuple gets one small int id, id 0 being the empty
response ``()``.  The cache stores ids, and a fleet keeps the ids it
was answered with, so neither side hashes a tuple per cell.  Misses
come back as occupied-channel bitmasks (so at most 63 channels), mapped
to ids by one ``np.searchsorted`` into the masks seen; unseen masks are
interned in order of first occurrence.

**One slot table, in segments.**  Both service tiers are a
:class:`SegmentedService`: the cache of K *segments* — a database is
one, a :class:`~repro.wsdb.cluster.router.ShardRouter` one per shard —
in one int64 table of four rows (packed key, response id, recency
stamp, segment) with one column per live response, sorted by packed
key, so a batch's lookups are one ``np.searchsorted``.  A key packs
``qx`` and ``qy`` into 26 bits each (the packable cells are ``-2**25 <=
q < 2**25`` per axis, :data:`PACKABLE_CELLS`) and the bucket as its age
behind its segment's newest observed bucket into 11 bits; a query
outside that range raises :class:`~repro.errors.SpectrumMapError`.  A
cell belongs to one segment, so keys are unique table-wide.  Each
segment keeps its own capacity, LRU order, newest bucket, TTL purge
(every advance of its newest bucket purges the whole segment, so the
age base never moves under a live key) and counters (a row of a K x
field array).  A batch is grouped by segment and its *p*-th cell stamps
its slot with ``clock + p``, so a repeated key keeps its last position
and the oldest stamp of a segment is its least recently used response.

**Exact LRU in safe prefixes.**  A batch leaves exactly the answers,
LRU contents and order, evictions and counters of a
one-cell-at-a-time loop over each segment's cells.  A segment whose
live and first-seen absent keys fit its capacity commits whole; the
others are walked in *safe prefixes*: with ``L`` live responses,
capacity ``C``, ``u(q)`` the first-seen absent keys up to position
``q`` and ``e(q) = max(0, L + u(q) - C)`` the evictions the loop has
made by then, a prefix is one exact array step while ``e(q) <= L`` and
``e(q)`` is at most the smallest old-LRU rank of any live response the
prefix touches.  Then no victim is a response the prefix touches or
inserts, so the loop's victims are exactly the ``e`` oldest, in stamp
order.  Both sides are monotone in ``q``, so the first break is one
``np.minimum.accumulate``; each pass commits every segment's prefix and
the walk continues from the breaks (a one-cell prefix is always safe).
A miss's slot holds a pending id (``-1 - m`` for the call's *m*-th
miss) until the one miss-kernel call of the batch answers; each answer
is written only to a slot still holding its pending id.  Capacity 0
stores nothing: every cell is a miss.

A response is a pure function of (metro state, cell, query time), so
cached and cache-disabled (``cache_capacity=0``) services return
**identical answers** for the same query sequence, but for the TTL
staleness contract: within a TTL bucket a cached response may lag a mic
*session* edge of an already-registered incumbent by up to the TTL.  A
registration invalidates the affected cells immediately, so newly
registered incumbents are never served stale.

Invalidation is cell-exact and time-aware
(:meth:`SegmentedService._invalidate`): the session test runs once per
distinct bucket, and the geometry is
:func:`~repro.wsdb.index.circle_intersects_cells`, the array form of
``circle_intersects_cell`` (near ties are re-decided by that predicate
itself).

Determinism: for a fixed query sequence the service is a pure function
of (metro state, sequence) — the property the citywide and roaming run
kinds' byte-identical parallel/sequential contract leans on.  Shrinking
``cache_resolution_m`` toward zero degenerates the protocol to
per-coordinate responses (every query point its own cell) — the
baseline the roaming benchmark compares against.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, fields
from itertools import accumulate
from typing import Any, Iterable, NamedTuple, Protocol

import numpy as np

from repro.errors import SpectrumMapError
from repro.wsdb.index import GridIndex, circle_intersects_cells
from repro.wsdb.model import Metro, MicRegistration

__all__ = [
    "AvailabilityService",
    "Lookup",
    "PACKABLE_CELLS",
    "ResponseTable",
    "SegmentedService",
    "WhiteSpaceDatabase",
    "WsdbStats",
    "default_cell_m",
    "free_channels",
    "quantize_cell",
    "quantize_cells",
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

#: Packed cache keys: ``qx`` and ``qy`` offset into ``_CELL_BITS``
#: unsigned bits each, then the bucket's age behind the newest observed
#: bucket in ``_AGE_BITS`` — 63 bits, a non-negative int64.
_CELL_BITS = 26
_AGE_BITS = 11
_CELL_OFFSET = 1 << (_CELL_BITS - 1)

#: The cells the cache can key, per axis: ``lo <= q < hi``.
PACKABLE_CELLS = (-_CELL_OFFSET, _CELL_OFFSET)

#: ``(qx + offset, qy + offset) . _KEY_WEIGHTS + age`` is the packed key.
_KEY_WEIGHTS = np.array(
    [1 << (_CELL_BITS + _AGE_BITS), 1 << _AGE_BITS], dtype=np.int64
)

#: Batches longer than this look their keys up in sorted order.
_SORTED_LOOKUP = 64

#: The rows of the slot table (one column per cached response).
_KEY, _RID, _STAMP, _SEG = range(4)


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


def quantize_cells(points: Any, resolution_m: float) -> np.ndarray:
    """:func:`quantize_cell` of every ``(x, y)`` row, as an (n, 2) array.

    *points* is an (n, 2) array or a sequence of pairs; each cell is
    ``floor(x / res)`` per axis, the scalar form's IEEE operations.
    """
    xy = np.asarray(points, dtype=np.float64).reshape(-1, 2)
    return np.floor(xy / resolution_m).astype(np.int64)


def ttl_bucket(t_us: float, ttl_us: float) -> int:
    """The TTL validity bucket containing *t_us*.

    The one home of the bucket convention: the service's cache keys,
    the frontend's stale-store validity check, and the clients'
    TTL-expiry re-check trigger must agree on where a response's
    validity window ends.
    """
    return int(t_us // ttl_us)


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
        return {**asdict(self), "hit_rate": self.hit_rate}


#: The columns of a service's K x field counter array: WsdbStats' fields.
_QUERIES, _HITS, _MISSES, _EVICTIONS, _EXPIRATIONS = range(5)
_INVALIDATIONS, _MIC_REGISTRATIONS, _SCANNED = range(5, 8)


class ResponseTable:
    """Interned channel responses: the ids a service tier answers in.

    Each distinct response tuple gets one small int id, in first-seen
    order; id 0 is the empty response ``()`` (a fleet's "never queried"
    answer).  ``tuples[i]`` is response *i* and ``sets[i]`` its
    frozenset.  The table only grows, so an id never changes meaning.
    """

    def __init__(self) -> None:
        self.tuples: list[tuple[int, ...]] = [()]
        self.sets: list[frozenset[int]] = [frozenset()]
        self._ids: dict[tuple[int, ...], int] = {(): 0}

    def __len__(self) -> int:
        return len(self.tuples)

    def ids(self, responses: Iterable[tuple[int, ...]]) -> np.ndarray:
        """The id of every response, in order, interning new ones."""
        known = self._ids
        out = []
        for response in responses:
            rid = known.get(response)
            if rid is None:
                rid = known[response] = len(self.tuples)
                self.tuples.append(response)
                self.sets.append(frozenset(response))
            out.append(rid)
        return np.array(out, dtype=np.int64)


class Lookup(NamedTuple):
    """One query call's answer, per requested cell in request order.

    ``ids`` are response ids into the tier's :class:`ResponseTable`,
    ``hit`` says whether the cell was a cache hit, ``scanned`` how
    many incumbent candidates its miss inspected (0 on a hit), and
    ``segment`` which segment answered it (a router's shard; 0 on the
    database).
    """

    ids: np.ndarray
    hit: np.ndarray
    scanned: np.ndarray
    segment: np.ndarray


class AvailabilityService(Protocol):
    """What a white-space device (or AP driver) needs of a service tier.

    Both :class:`WhiteSpaceDatabase` and the cluster's
    :class:`~repro.wsdb.cluster.router.ShardRouter` satisfy this; the
    citywide helpers (``assign_ap`` / ``boot_aps`` /
    ``displace_covered_aps``) and :func:`free_channels` are written
    against it, which is what lets one deployment driver run on either
    service tier.
    """

    metro: Metro
    cache_resolution_m: float
    responses: ResponseTable

    def response_ids_in_cells(
        self, cells: np.ndarray, t_us: float = 0.0
    ) -> Lookup: ...


def free_channels(
    service: AvailabilityService, points: Any, t_us: float = 0.0
) -> list[tuple[int, ...]]:
    """The channels free at each point at *t_us*, one tuple per point.

    *points* is an (n, 2) array or a sequence of ``(x, y)`` pairs.
    Each point is answered with its quantization cell's response
    (:func:`quantize_cells`) in one batch: each point counts as one
    query, and points sharing a cell share its cached response.
    """
    cells = quantize_cells(points, service.cache_resolution_m)
    ids = service.response_ids_in_cells(cells, t_us).ids
    tuples = service.responses.tuples
    return [tuples[i] for i in ids.tolist()]


class SegmentedService:
    """The response cache and miss path of both service tiers: K
    segments of one slot table over one stacked :class:`GridIndex`
    (module docstring).  A subclass builds :attr:`index` and names each
    cell's segment (:meth:`_segments_of`).
    """

    def __init__(
        self,
        metro: Metro,
        ttl_us: float,
        cache_resolution_m: float,
        cache_capacity: int,
        segments: int,
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
        if metro.num_channels > 63:
            raise SpectrumMapError(
                f"{metro.num_channels} channels do not fit 63-channel masks"
            )
        self.metro = metro
        self.ttl_us = ttl_us
        self.cache_resolution_m = cache_resolution_m
        self.cache_capacity = cache_capacity
        self.responses = ResponseTable()
        # The slot table (see the module docstring): rows _KEY.._SEG,
        # one column per cached response, sorted by packed key.  Kept
        # C-contiguous (column selections go through take/compress, not
        # fancy indexing, which would transpose the layout) so each row
        # is a contiguous column for searchsorted and the ufuncs.
        self._slots = np.zeros((4, 0), dtype=np.int64)
        self._clock = 0  # the stamp of the next call's first cell
        self._latest = [0] * segments  # each segment's newest bucket
        self._counts = np.zeros((segments, len(fields(WsdbStats))), dtype=np.int64)
        # The miss kernel's masks seen, sorted, over their response ids
        # (-1 first, so a lookup never meets an empty column).
        self._masks = np.array([[-1], [-1]], dtype=np.int64)

    # -- cache plumbing ------------------------------------------------------

    def cell_of(self, x_m: float, y_m: float) -> tuple[int, int]:
        """The quantization cell containing (x, y).

        Floor division, so negative coordinates land in negative cells
        (cell (-1, -1) spans ``[-resolution, 0)`` on each axis) rather
        than sharing cell (0, 0) with the origin's square.
        """
        return quantize_cell(x_m, y_m, self.cache_resolution_m)

    def cached_items(
        self, segment: int = 0
    ) -> list[tuple[tuple[int, int, int], tuple[int, ...]]]:
        """*segment*'s cached ``((qx, qy, bucket), channels)``, least
        recent first."""
        slots = self._slots.compress(self._slots[_SEG] == segment, axis=1)
        slots = slots.take(slots[_STAMP].argsort(), axis=1)
        tuples = self.responses.tuples
        return [
            ((qx, qy, bucket), tuples[rid])
            for qx, qy, bucket, rid in zip(
                *(row.tolist() for row in (*self._unpack(slots), slots[_RID]))
            )
        ]

    def _unpack(self, slots: np.ndarray) -> tuple[np.ndarray, ...]:
        """The ``qx``, ``qy`` and TTL bucket rows packed in *slots*' keys
        (a key's age counts back from its segment's newest bucket)."""
        key = slots[_KEY]
        cell = (1 << _CELL_BITS) - 1
        return (
            (key >> (_CELL_BITS + _AGE_BITS)) - _CELL_OFFSET,
            (key >> _AGE_BITS & cell) - _CELL_OFFSET,
            np.array(self._latest)[slots[_SEG]] - (key & (1 << _AGE_BITS) - 1),
        )

    def _segments_of(
        self, cells: np.ndarray
    ) -> tuple[np.ndarray | None, list[int], list[int]]:
        """The permutation grouping a batch by segment (None: grouped),
        the segments it touches, ascending, and each one's cell count."""
        return None, [0], [len(cells)]

    def _pack(self, cells: np.ndarray, bucket: int, segments: list[int],
              counts: list[int]) -> np.ndarray:
        """The packed cache key of every cell in TTL bucket *bucket*;
        the cells are grouped, *counts* of each of *segments*."""
        age = [max(self._latest[s], bucket) - bucket for s in segments]
        offset = cells + _CELL_OFFSET
        if np.bitwise_or.reduce(offset, axis=None) >> _CELL_BITS:
            raise SpectrumMapError(
                "cell outside the cache's packable range "
                f"[{PACKABLE_CELLS[0]}, {PACKABLE_CELLS[1]}) per axis"
            )
        if max(age, default=0) >> _AGE_BITS:
            raise SpectrumMapError(
                f"TTL bucket {bucket} lies more than {(1 << _AGE_BITS) - 1} "
                f"buckets behind the newest queried ({bucket + max(age)})"
            )
        keys = offset.dot(_KEY_WEIGHTS)
        if any(age):
            keys += np.repeat(age, counts)
        return keys

    def _purge_expired(self, bucket: int, segments: list[int]) -> None:
        """Drop every response of each of *segments* whose newest bucket
        *bucket* advances.

        Expired responses can never be served again (their bucket is
        part of the cache key), but left in place they occupy LRU
        capacity and are scanned by every invalidation pass.  A
        segment's queries are its only clock: one no batch touches
        purges nothing, and ``register_mic`` relies on the query path
        rather than purging itself.
        """
        stale = [s for s in segments if self._latest[s] < bucket]
        if not stale:
            return
        for s in stale:
            self._latest[s] = bucket
        slots = self._slots
        drop = np.isin(slots[_SEG], stale)
        self._counts[:, _EXPIRATIONS] += np.bincount(
            slots[_SEG][drop], minlength=len(self._latest)
        )
        self._slots = slots.compress(~drop, axis=1)

    def _touch(
        self, keys: np.ndarray, segments: list[int], counts: list[int]
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list]:
        """Walk a batch through the LRU in safe prefixes, each segment's
        cells (grouped, *counts* of each of *segments*) through its own.

        Returns the hit mask, each cell's response id, the positions of
        the misses, and ``(positions, m)`` array pairs: the cells the
        call's *m*-th miss answers (the miss itself, and every hit on
        its pending slot), whose ids are not filled in yet.
        """
        n = len(keys)
        hit, ids = np.zeros(0, dtype=bool), keys  # an empty batch
        capacity, clock = self.cache_capacity, self._clock
        missed, refs = [], []
        misses = 0
        pos = np.arange(n)  # the positions left to walk
        while len(pos):
            slots = self._slots
            live = slots.shape[1]
            k = keys[pos] if len(missed) else keys
            m = len(k)
            if m > _SORTED_LOOKUP:
                # The binary search runs in key order: random-order
                # queries stall it on mispredicted branches.
                order = k.argsort()
                row = np.empty(m, dtype=np.intp)
                row[order] = slots[_KEY].searchsorted(k[order])
            else:
                row = slots[_KEY].searchsorted(k)
            found = (
                slots[_KEY].take(row, mode="clip") == k if live
                else np.zeros(m, dtype=bool)
            )
            if not missed:
                if np.count_nonzero(found) == m:
                    # Every cell hits: one safe prefix, restamped.  (A
                    # later pass starts at a key the last one evicted.)
                    np.maximum.at(slots[_STAMP], row, clock + pos)
                    self._clock += n
                    return found, slots[_RID][row], keys[:0], refs
                hit, ids = np.ones(n, dtype=bool), np.empty(n, dtype=np.int64)
                seg = np.repeat(segments, counts)
            # The absent keys, grouped: the first of each group is a
            # miss (once the prefix reaches it), its repeats hit its
            # slot.  Groups are numbered in first-position order.
            absent = (~found).nonzero()[0]
            fresh, group = absent, np.arange(len(absent))
            if len(absent) > 1:
                order = k[absent].argsort(kind="stable")
                ranked = k[absent][order]
                lead = np.empty(len(absent), dtype=bool)
                lead[0] = True
                np.not_equal(ranked[1:], ranked[:-1], out=lead[1:])
                if not lead.all():
                    group[order] = lead.cumsum() - 1
                    first = absent[order[lead]]
                    by_pos = first.argsort()
                    fresh = first[by_pos]
                    renumber = np.empty(len(fresh), dtype=np.int64)
                    renumber[by_pos] = np.arange(len(fresh))
                    group = renumber[group]
            victims, rest = [], pos[:0]
            if live + len(fresh) > capacity:
                # Per segment that overflows: e(q), and the old-LRU rank
                # of each touched response among the segment's e(m - 1)
                # oldest (the rest rank past them).
                owner = seg[pos]
                lives = np.bincount(slots[_SEG], minlength=len(self._latest))
                adds = np.bincount(owner[fresh], minlength=len(self._latest))
                commit = np.ones(m, dtype=bool)
                for s in np.flatnonzero(lives + adds > capacity).tolist():
                    lo, hi = owner.searchsorted((s, s + 1))
                    own = int(lives[s])
                    evicted = np.zeros(hi - lo, dtype=np.int64)
                    mine = fresh[fresh.searchsorted(lo) : fresh.searchsorted(hi)]
                    evicted[mine - lo] = 1
                    evicted = evicted.cumsum() + (own - capacity)
                    worst = min(int(evicted[-1]), own)
                    # (A segment holding every slot skips the gather.)
                    cols = np.flatnonzero(slots[_SEG] == s) if own < live else None
                    stamps = slots[_STAMP] if cols is None else slots[_STAMP][cols]
                    oldest = stamps.argpartition(max(worst - 1, 0))[:worst]
                    oldest = oldest[stamps[oldest].argsort()]
                    if cols is not None:
                        oldest = cols[oldest]
                    rank = np.full(live, own, dtype=np.int64)
                    rank[oldest] = np.arange(worst)
                    touched = np.full(hi - lo, own, dtype=np.int64)
                    hits = found[lo:hi]
                    touched[hits] = rank[row[lo:hi][hits]]
                    unsafe = evicted > np.minimum.accumulate(touched)
                    stop = int(unsafe.argmax()) if unsafe.any() else hi - lo
                    victims.append(oldest[: max(0, int(evicted[stop - 1]))])
                    commit[lo + stop : hi] = False
                if not commit.all():
                    # Each segment's safe prefix commits; the rest walks
                    # on in the next pass (groups renumbered in order).
                    rest = pos[~commit]
                    found &= commit
                    kept = commit[absent]
                    absent = absent[kept]
                    group = (commit[fresh].cumsum() - 1)[group[kept]]
                    fresh = fresh[commit[fresh]]
            # Commit: hits restamp their slots (a slot still pending
            # holds an earlier pass's miss) ...
            p = found.nonzero()[0]
            if len(p):
                rows = row[p]
                ids[pos[p]] = rid = slots[_RID][rows]
                np.maximum.at(slots[_STAMP], rows, clock + pos[p])
                if missed:
                    waiting = rid < 0
                    refs.append((pos[p[waiting]], -1 - rid[waiting]))
            # ... and first-seen absent keys take slots with pending ids.
            new = len(fresh)
            at = pos[fresh]
            hit[at] = False
            refs.append((pos[absent], misses + group))
            missed.append(at)
            added = np.empty((4, new), dtype=np.int64)
            added[_KEY] = k[fresh]
            added[_RID] = np.arange(-1 - misses, -1 - misses - new, -1)
            added[_STAMP] = clock + at
            added[_SEG] = seg[at]
            if len(absent) > new:
                np.maximum.at(added[_STAMP], group, clock + pos[absent])
            misses += new
            if victims:
                victims = np.concatenate(victims)
                self._counts[:, _EVICTIONS] += np.bincount(
                    slots[_SEG][victims], minlength=len(self._latest)
                )
                keep = np.ones(live, dtype=bool)
                keep[victims] = False
                slots = slots.compress(keep, axis=1)
            slots = np.concatenate((slots, added), axis=1)
            self._slots = slots.take(slots[_KEY].argsort(kind="stable"), axis=1)
            pos = rest
        self._clock += n
        return hit, ids, np.concatenate(missed) if missed else keys[:0], refs

    # -- queries -------------------------------------------------------------

    def response_ids_in_cells(
        self, cells: np.ndarray, t_us: float = 0.0
    ) -> Lookup:
        """Batch cell-granular responses as ids into :attr:`responses`.

        *cells* is an (n, 2) int array of ``(qx, qy)`` rows; returns a
        :class:`Lookup` with one id, cache outcome, scan count and
        answering segment per row.  The protocol primitive every query
        path rides.  Each segment sees its cells in request order, and
        the batch leaves exactly the answers, outcomes, LRU contents and
        order, and counters of a loop of one-cell calls (duplicates
        included):

        1. the batch, grouped by segment, walks the slot table in safe
           prefixes (module docstring);
        2. one :meth:`GridIndex.occupied_masks` call computes every
           miss, in ascending segment and then request order (the order
           new responses are interned in); each answer lands in its
           slot if the slot still holds the miss's pending id.

        Cells outside :data:`PACKABLE_CELLS`, or a bucket more than 2047
        buckets behind a touched segment's newest, raise
        :class:`~repro.errors.SpectrumMapError` before anything moves.
        """
        cells = np.asarray(cells, dtype=np.int64).reshape(-1, 2)
        order, segments, counts = self._segments_of(cells)
        if order is not None:
            cells = cells[order]
        n = len(cells)
        bucket = ttl_bucket(t_us, self.ttl_us)
        keys = self._pack(cells, bucket, segments, counts)
        self._purge_expired(bucket, segments)
        if self.cache_capacity:
            hit, ids, miss, refs = self._touch(keys, segments, counts)
        else:
            # Capacity 0 stores nothing: every cell is its own miss.
            miss = np.arange(n)
            hit, ids = np.zeros(n, dtype=bool), np.empty_like(miss)
            refs = [(miss, miss)]
        scanned = np.zeros(n, dtype=np.int64)
        segment = np.repeat(segments, counts)
        # Each touched segment's run of cells, and the misses and scans
        # in each run (cumulative, as Python ints).
        runs = [0, *accumulate(counts)]
        cut = total = [0] * len(runs)
        if len(miss):
            # Ordinals follow the walk's passes; the kernel (and the
            # interning) runs in request order.
            by_pos = miss.argsort()
            miss = miss[by_pos]
            answers = np.empty(len(miss), dtype=np.int64)
            answers[by_pos], scanned[miss] = self._compute_misses(
                cells[miss], segment[miss], t_us
            )
            for positions, ordinal in refs:
                ids[positions] = answers[ordinal]
            rid = self._slots[_RID]
            pending = rid < 0
            rid[pending] = answers[-1 - rid[pending]]
            cut = miss.searchsorted(runs).tolist()
            total = [0, *scanned[miss].cumsum().tolist()]
        # Scans are counted from the kernel's return (not the index's
        # running total): direct use of the public index must not leak
        # into these counters.
        for r, (s, q) in enumerate(zip(segments, counts)):
            m, row = cut[r + 1] - cut[r], self._counts[s]
            row[_QUERIES] += q
            row[_HITS] += q - m
            row[_MISSES] += m
            row[_SCANNED] += total[cut[r + 1]] - total[cut[r]]
        if order is not None:  # back to request order
            back = np.empty_like(order)
            back[order] = np.arange(n)
            ids, hit, scanned, segment = (
                ids[back], hit[back], scanned[back], segment[back]
            )
        return Lookup(ids, hit, scanned, segment)

    def _compute_misses(
        self, cells: np.ndarray, segments: np.ndarray, t_us: float
    ) -> tuple[np.ndarray, np.ndarray]:
        """Response id of each missed cell at *t_us*, and its scan count.

        Conservative area semantics: a channel is denied when any
        active incumbent of the cell's segment has a contour
        intersecting the cell square, so the response is safe to act on
        from any coordinate inside the cell.
        """
        res = self.cache_resolution_m
        corner = cells * res
        masks, scanned = self.index.occupied_masks(
            np.concatenate((corner, corner + res), axis=1), t_us, segments
        )
        known = self._masks
        at = known[0].searchsorted(masks)
        new = masks[known[0].take(at, mode="clip") != masks]
        if len(new):
            new = list(dict.fromkeys(new.tolist()))
            dial = range(self.metro.num_channels)
            free = [tuple(c for c in dial if not k >> c & 1) for k in new]
            known = np.concatenate((known, [new, self.responses.ids(free)]), axis=1)
            self._masks = known = known.take(known[0].argsort(), axis=1)
            at = known[0].searchsorted(masks)
        return known[1].take(at), scanned

    # -- updates -------------------------------------------------------------

    def _invalidate(self, registration: MicRegistration, segments) -> int:
        """Count a registration in *segments*; drop their responses it
        changes and return how many.

        One pass over the slot table, masked to *segments*, drops every
        response whose square intersects the new zone in a TTL bucket
        overlapping one of the mic's sessions.  A response is only ever
        served inside its own bucket, so a bucket wholly before or
        after every session holds a response the registration cannot
        change; dropping it would only force a recompute to the same
        answer (and misreport ``invalidations``).
        """
        self._counts[segments, _MIC_REGISTRATIONS] += 1
        slots = self._slots
        cand = np.flatnonzero(np.isin(slots[_SEG], segments))
        if not len(cand):
            return 0
        # Queries purge buckets behind the observed clock as they
        # advance it, so this pass sees at most the entries at or after
        # the last observed bucket (out-of-order query times can park
        # older entries here, but the time-aware test still judges
        # them correctly).
        qx, qy, bucket = self._unpack(slots.take(cand, axis=1))
        buckets, inverse = np.unique(bucket, return_inverse=True)
        sessions = registration.microphone.sessions
        overlaps = []
        for bucket in buckets.tolist():
            bucket_start = bucket * self.ttl_us
            bucket_end = bucket_start + self.ttl_us
            # Both intervals are half-open ([start, end) sessions
            # against [bucket_start, bucket_end) buckets), so both
            # edges test strictly: a session ending exactly at the
            # bucket boundary is never active inside the bucket.
            overlaps.append(
                any(
                    s.start_us < bucket_end and s.end_us > bucket_start
                    for s in sessions
                )
            )
        live = np.array(overlaps, dtype=bool)[inverse]
        stale = np.zeros(slots.shape[1], dtype=bool)
        stale[cand[live]] = circle_intersects_cells(
            registration.x_m,
            registration.y_m,
            registration.radius_m,
            qx[live],
            qy[live],
            self.cache_resolution_m,
        )
        dropped = np.bincount(slots[_SEG][stale], minlength=len(self._latest))
        self._counts[:, _INVALIDATIONS] += dropped
        self._slots = slots.compress(~stale, axis=1)
        return int(dropped.sum())


class WhiteSpaceDatabase(SegmentedService):
    """A queryable, cacheable geolocation white-space database.

    The one-segment :class:`SegmentedService`.

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
        super().__init__(metro, ttl_us, cache_resolution_m, cache_capacity, 1)
        if cell_m is None:
            cell_m = default_cell_m(metro)
        self.index = GridIndex(metro.extent_m, cell_m)
        self.index.extend(metro.sites)
        self.index.extend(metro.registrations)

    @property
    def stats(self) -> WsdbStats:
        """A snapshot of the service counters."""
        return WsdbStats(*self._counts[0].tolist())

    def register_mic(self, registration: MicRegistration) -> int:
        """Accept a mic registration; invalidate the affected responses.

        Returns the number of invalidated responses (see
        :meth:`SegmentedService._invalidate`).
        """
        self.metro.add_registration(registration)
        self.index.insert(registration)
        return self._invalidate(registration, [0])

    def publish_metrics(self, telemetry) -> None:
        """Publish the service counters into a sim-clock registry.

        Integer counters land as ``wsdb_*`` counters, ratio properties
        as gauges (see ``MetricsRegistry.record_stats``).  Cache
        occupancy (the live-slot count) rides along as an instantaneous
        gauge.
        """
        if not telemetry.enabled:
            return
        telemetry.record_stats("wsdb", self.stats.as_dict())
        telemetry.gauge("wsdb_cached_responses").set(
            float(self._slots.shape[1])
        )
