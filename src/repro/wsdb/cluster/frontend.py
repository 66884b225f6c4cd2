"""The cluster front door: batched queries, admission control, shedding.

A city under load does not send the database one polite query at a
time — it sends *bursts*: every AP re-checking at a TTL edge, every
client in a commuter flow crossing cells in the same tick, a survey
sweep.  :class:`BatchFrontend` is the service tier's front end for that
shape of traffic:

* **Coalescing.**  A burst handed to :meth:`query_batch` — an (n, 2)
  coordinate array: a tick's whole storm, or a tick's whole set of
  re-checking clients — is quantized and deduplicated by cell as array
  operations before any shard is touched: N admitted requests in one
  cell become one lookup whose response every requester shares (the
  counters record how many requests coalesced away).  The unique cells
  go to the router's
  :meth:`~repro.wsdb.cluster.router.ShardRouter.response_ids_in_cells`
  as one batch, so each shard sees one call per burst, not one call
  per request.
* **Token-bucket rate limiting.**  The frontend admits requests against
  a bucket refilled at ``rate_limit_qps`` (burst capacity
  ``burst_size``), clocked by *simulation* time — admission is a pure
  function of the request sequence, preserving the byte-identical
  parallel/sequential contract.
* **Shed policies.**  An over-limit request is *shed* under one of
  :data:`SHED_POLICIES`: ``"reject"`` refuses it (the device keeps its
  stale response and retries — the deferral the querystorm driver
  counts), ``"serve-stale"`` answers from the frontend's last-known
  response for the cell, trading admission for availability.

Answers are response ids into the router's shared
:class:`~repro.wsdb.service.ResponseTable`, ``-1`` meaning refused.

The stale store honors the response protocol's own validity contract:
entries are stamped with their TTL bucket and served only inside it
(a response past its bucket is dead, exactly as in the database's
cache), and :meth:`register_mic` purges entries with the same
zone/cell geometry the databases use — so ``serve-stale`` never serves
across a protection-zone edge it has been told about, and never serves
a response the pull protocol itself would no longer honor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.errors import SimulationError, SpectrumMapError
from repro.telemetry.metrics import (
    DEFAULT_BATCH_BOUNDS,
    DEFAULT_LATENCY_BOUNDS_US,
    NULL_TELEMETRY,
)
from repro.telemetry.spans import NULL_SPANS, lookup_steps
from repro.wsdb.cluster.push import PushRegistry
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.index import circle_intersects_cells
from repro.wsdb.model import MicRegistration
from repro.wsdb.service import PACKABLE_CELLS, quantize_cells, ttl_bucket

__all__ = ["BatchFrontend", "FrontendStats", "SHED_POLICIES", "TokenBucket"]

#: How an over-limit request is answered: refused, or served from the
#: stale store when its cell has a response from the current TTL bucket.
SHED_POLICIES = ("reject", "serve-stale")

#: Stale-store keys pack ``qy`` behind ``qx`` in this many bits, each
#: offset to start at 0 (the packable cells of the service's keys).
_STALE_BITS = 26


def _pack_stale(qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """The stale-store key of every cell, each inside
    :data:`~repro.wsdb.service.PACKABLE_CELLS`."""
    lo = PACKABLE_CELLS[0]
    return (qx - lo) << _STALE_BITS | (qy - lo)


def _stale_keys(qx: np.ndarray, qy: np.ndarray) -> np.ndarray:
    """:func:`_pack_stale` of every cell; -1 for a cell outside
    :data:`~repro.wsdb.service.PACKABLE_CELLS`, which no shard answers
    and so the store never holds."""
    lo, hi = PACKABLE_CELLS
    packable = (qx >= lo) & (qx < hi) & (qy >= lo) & (qy < hi)
    return np.where(packable, _pack_stale(qx, qy), -1)


class TokenBucket:
    """A deterministic token bucket clocked by simulation time.

    Args:
        rate_qps: refill rate (tokens per simulated second); None
            disables limiting (every request admitted).
        burst_size: bucket capacity (None: one second's worth of
            tokens, the conventional default, floored at one token so
            a sub-1 qps rate can still ever admit anything).
    """

    def __init__(self, rate_qps: float | None, burst_size: float | None = None):
        if rate_qps is not None and rate_qps <= 0:
            raise SpectrumMapError(
                f"rate_qps must be > 0 (or None), got {rate_qps!r}"
            )
        if burst_size is not None and burst_size < 1:
            raise SpectrumMapError(
                f"burst_size must be >= 1, got {burst_size!r}"
            )
        self.rate_qps = rate_qps
        self.burst_size = (
            float(burst_size)
            if burst_size is not None
            else (max(1.0, rate_qps) if rate_qps is not None else 0.0)
        )
        self._tokens = self.burst_size
        self._last_t_us = 0.0

    def admit_many(self, t_us: float, n: int) -> int:
        """Offer *n* requests at *t_us*; returns how many are admitted.

        The admitted requests are always the first ``k`` of the *n*:
        the bucket refills once per timestamp, so *n* sequential
        one-token admissions at one *t_us* admit exactly the prefix
        ``k = min(n, floor(tokens))``, and subtracting ``k`` at once
        leaves the same float as ``k`` subtractions of 1.0 (each is
        exact on a token count below 2**53).  Time never runs
        backwards here: a *t_us* behind the last observed clock refills
        nothing (out-of-order queries cannot mint tokens).  ``n == 0``
        touches nothing, exactly like zero :meth:`admit` calls.
        """
        if self.rate_qps is None or n == 0:
            return n
        if t_us > self._last_t_us:
            self._tokens = min(
                self.burst_size,
                self._tokens + (t_us - self._last_t_us) * self.rate_qps / 1e6,
            )
            self._last_t_us = t_us
        k = min(n, int(self._tokens))
        self._tokens -= k
        return k

    def admit(self, t_us: float) -> bool:
        """Consume one token at *t_us*; False when the bucket is dry."""
        return self.admit_many(t_us, 1) == 1


@dataclass
class FrontendStats:
    """Frontend counters for benchmarking the admission/batching path.

    Attributes:
        requests: availability requests received.
        admitted: requests the token bucket let through.
        shed: over-limit requests (however the policy answered them).
        served_stale: shed requests answered from the stale store.
        coalesced: admitted requests answered by another request's
            shard lookup in the same batch (deduplicated by cell).
        batches: :meth:`BatchFrontend.query_batch` invocations.
        shard_batches: per-shard batched calls issued (at most one per
            shard per batch — the fan-in the batching exists for).
    """

    requests: int = 0
    admitted: int = 0
    shed: int = 0
    served_stale: int = 0
    coalesced: int = 0
    batches: int = 0
    shard_batches: int = 0

    @property
    def shed_rate(self) -> float:
        """Shed requests over all requests (0 when nothing was asked)."""
        return self.shed / self.requests if self.requests else 0.0

    def as_dict(self) -> dict[str, float | int]:
        """Plain-data snapshot (for probes and benchmark JSON)."""
        return {
            "requests": self.requests,
            "admitted": self.admitted,
            "shed": self.shed,
            "served_stale": self.served_stale,
            "coalesced": self.coalesced,
            "batches": self.batches,
            "shard_batches": self.shard_batches,
            "shed_rate": self.shed_rate,
        }


class BatchFrontend:
    """Admission control + per-shard batching over a :class:`ShardRouter`.

    Args:
        router: the shard tier answering admitted requests.
        rate_limit_qps: token-bucket refill rate (None: no limiting).
        burst_size: token-bucket capacity (None: one second's refill).
        policy: a shed-policy name from :data:`SHED_POLICIES`.
        push: optional :class:`PushRegistry` notified on
            :meth:`register_mic` (its cell resolution must match the
            router's).
        telemetry: optional sim-clock ``MetricsRegistry``.  When
            attached, every *served* request observes its
            enqueue→serve latency into the ``frontend_latency_us``
            histogram and every burst observes its size into
            ``frontend_batch_requests``; None keeps the pre-telemetry
            path byte-identical.
        spans: optional sim-clock
            :class:`~repro.telemetry.spans.SpanRecorder`.  When
            attached *and* a caller labels its requests (the
            ``span_refs`` argument of :meth:`query_batch`), every
            served request counts into the recorder's latency buckets,
            every shed attempt records a ``shed_defer``, and each
            served request whose trace is kept records a full
            admission → shard-lookup → cache span tree; None keeps the
            path byte-identical.
    """

    def __init__(
        self,
        router: ShardRouter,
        rate_limit_qps: float | None = None,
        burst_size: float | None = None,
        policy: str = "reject",
        push: PushRegistry | None = None,
        telemetry=None,
        spans=None,
    ):
        if push is not None and (
            push.cache_resolution_m != router.cache_resolution_m
        ):
            raise SimulationError(
                "push registry cell edge "
                f"({push.cache_resolution_m!r} m) must match the router's "
                f"({router.cache_resolution_m!r} m)"
            )
        if policy not in SHED_POLICIES:
            raise SimulationError(
                f"unknown shed policy {policy!r}; "
                f"expected one of {tuple(sorted(SHED_POLICIES))}"
            )
        self.router = router
        self.bucket = TokenBucket(rate_limit_qps, burst_size)
        self.policy = policy
        self.push = push
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.spans = NULL_SPANS if spans is None else spans
        self.stats = FrontendStats()
        # The stale store: one column per cell answered, sorted by
        # stale key — key, TTL bucket the response was computed in,
        # response id.
        self._stale = np.zeros((3, 0), dtype=np.int64)
        self._bucket_now = 0

    # -- queries -------------------------------------------------------------

    def query_batch(
        self,
        points: Any,
        t_us: float = 0.0,
        enqueue_t_us: Sequence[float] | None = None,
        span_refs: tuple[str, np.ndarray] | None = None,
    ) -> np.ndarray:
        """Answer a burst: admit, coalesce by cell, batch per shard.

        ``points`` is an (n, 2) float array of request coordinates (a
        sequence of ``(x, y)`` pairs converts through ``np.asarray``).
        Returns an int64 array of one response id per point, in point
        order — an id into the router's :attr:`responses` table, or
        ``-1`` for a request shed without a stale fallback.

        The burst is processed as arrays, with exactly the outcome of
        evaluating it one request at a time in order:

        1. cells are :func:`~repro.wsdb.service.quantize_cells`;
        2. the token bucket admits the prefix of the first ``k``
           requests (:meth:`TokenBucket.admit_many`), so the shed
           requests are always the suffix;
        3. the admitted cells deduplicate (one ``argsort`` of an int64
           cell key, its runs' first requests by ``np.minimum.reduceat``)
           and go, in first-occurrence order, to the router
           as one batch — each owning shard gets one call, in ascending
           shard order with its cells in first-occurrence order: the
           cache recency order and stats sequence of a
           request-by-request pass;
        4. under ``serve-stale``, shed requests are answered from the
           just-refreshed stale store in request order; a response is
           served only inside the TTL bucket it was computed in (the
           database itself would recompute), so serve-stale trades
           *admission*, not validity.

        ``enqueue_t_us`` optionally stamps each request's enqueue time
        (storm-event generation, or the first attempt of a deferred
        re-check); a served request then observes ``t_us - enqueue``
        into the latency histogram.  Today's frontend is synchronous —
        a request serves inside its own call, so the unstamped latency
        is honestly zero — but the stamp plumbing is exactly what the
        ROADMAP's pipelined async tier will feed with real
        queue-residency times.

        ``span_refs`` optionally labels the burst for the attached span
        recorder as ``(req, subjects)``: one request kind and an int64
        subject per request (e.g. ``("storm", sequence numbers)`` /
        ``("recheck", client ids)``).  The whole burst is recorded in
        one :meth:`~repro.telemetry.spans.SpanRecorder.requests` call;
        trace ids derive from the kind, the subject and the enqueue
        stamp, so a deferred request's retries accumulate into one
        trace.

        Callers that need each request's admission outcome read it off
        ``stats.admitted`` across the call: the first ``admitted``
        delta requests were admitted, the rest shed.
        """
        router = self.router
        cells = quantize_cells(points, router.cache_resolution_m)
        n = len(cells)
        answers = np.full(n, -1, dtype=np.int64)
        if n == 0:
            return answers
        stats = self.stats
        stats.batches += 1
        stats.requests += n
        self._bucket_now = now = ttl_bucket(t_us, router.ttl_us)
        qx, qy = cells[:, 0], cells[:, 1]
        k = self.bucket.admit_many(t_us, n)
        stats.admitted += k
        stats.shed += n - k
        span_on = self.spans.enabled and span_refs is not None
        slot = np.zeros(0, dtype=np.int64)
        primary = np.zeros(0, dtype=bool)
        if k:
            ax, ay = qx[:k], qy[:k]
            y0 = ay.min()
            key = (ax - ax.min()) * (int(ay.max() - y0) + 1) + (ay - y0)
            # One unstable sort groups the requests by cell; the least
            # position in each run is its cell's first request, so the
            # order within a run never shows.
            order = key.argsort()
            sorted_key = key.take(order)
            run = np.empty(k, dtype=bool)
            run[0] = True
            np.not_equal(sorted_key[1:], sorted_key[:-1], out=run[1:])
            starts = np.flatnonzero(run)
            first = np.minimum.reduceat(order, starts)
            stats.coalesced += k - len(first)
            # The unique cells in first-occurrence order (the order the
            # parallel/sequential contract needs), as one router batch.
            primary = np.zeros(k, dtype=bool)
            primary[first] = True
            unique = cells[:k].compress(primary, axis=0)
            calls = router.shard_calls
            lookup = router.response_ids_in_cells(unique, t_us)
            stats.shard_batches += router.shard_calls - calls
            # The router-batch position of each cell's first request,
            # then each key-ordered cell's answer, repeated over its run.
            slot = np.zeros(k, dtype=np.int64)
            slot[primary] = np.arange(len(first))
            ids = lookup.ids.take(slot.take(first))
            answers[order] = ids.repeat(np.diff(starts, append=k))
            # Refresh the store: the batch's entries replace the old
            # ones of their cells.  Every cell the router answered is
            # packable (it raises on any other), so its keys pack
            # unmasked.  Both runs are in stale-key order (cell key
            # order is (qx, qy) order), so the stable sort is one
            # merge, and it puts the batch's entry of a cell last.
            fresh = np.stack((
                _pack_stale(ax.take(first), ay.take(first)),
                np.full(len(first), now),
                ids,
            ))
            merged = np.concatenate((self._stale, fresh), axis=1)
            merged = merged.take(merged[0].argsort(kind="stable"), axis=1)
            last = np.ones(merged.shape[1], dtype=bool)
            np.not_equal(merged[0, 1:], merged[0, :-1], out=last[:-1])
            self._stale = merged.compress(last, axis=1)
        stale = self._stale
        if k < n and self.policy == "serve-stale" and stale.shape[1]:
            key = _stale_keys(qx[k:], qy[k:])
            at = stale[0].searchsorted(key)
            served = (stale[0].take(at, mode="clip") == key) & (
                stale[1].take(at, mode="clip") == now
            )
            answers[k:][served] = stale[2].take(at[served])
            stats.served_stale += int(np.count_nonzero(served))
        tel = self.telemetry
        if not (span_on or tel.enabled):
            return answers
        served = answers >= 0
        if span_on:
            def steps_of(i: int) -> list[tuple]:
                # Shed requests serve from the stale store; the first
                # admitted request per cell carries the shard lookup's
                # cache-hit/scan spans, later ones are coalesced.
                if i >= k:
                    return [("stale_serve", "frontend", {}, ())]
                if not primary[i]:
                    return [
                        ("admission", "frontend", {}, ()),
                        ("coalesced", "frontend", {}, ()),
                    ]
                j = int(slot[i])
                site = f"shard{int(lookup.segment[j])}"
                return [
                    ("admission", "frontend", {}, ()),
                    lookup_steps(
                        bool(lookup.hit[j]), lookup.scanned[j], site, shard=True
                    ),
                ]

            req, subjects = span_refs
            self.spans.requests(
                req, subjects, enqueue_t_us, t_us, k, served, steps_of
            )
        if tel.enabled:
            tel.histogram(
                "frontend_batch_requests", DEFAULT_BATCH_BOUNDS
            ).observe(float(n))
            enqueued = (
                np.full(n, t_us, dtype=np.float64)
                if enqueue_t_us is None
                else np.asarray(enqueue_t_us, dtype=np.float64)
            )
            tel.histogram(
                "frontend_latency_us", DEFAULT_LATENCY_BOUNDS_US
            ).observe_many((t_us - enqueued)[served])
        return answers

    # -- updates -------------------------------------------------------------

    def register_mic(
        self,
        registration: MicRegistration,
        span_ref: tuple[int, float] | None = None,
    ) -> tuple[int, ...]:
        """Accept a registration: invalidate, then push-notify.

        Routes the zone through the shard tier (each touched shard
        invalidates its cached responses), drops the frontend's own
        stale entries the zone touches (``serve-stale`` must never
        serve across a zone edge it has been told about), and fans the
        notification out through the push registry when one is
        attached.  Returns the notified device ids (empty without a
        registry).

        ``span_ref`` optionally labels the registration with its
        ``(event index, t_us)`` identity so the attached span recorder
        can record the invalidation + push fan-out tree.
        """
        invalidated = self.router.register_mic(registration)
        key, lo = self._stale[0], PACKABLE_CELLS[0]
        touched = circle_intersects_cells(
            registration.x_m,
            registration.y_m,
            registration.radius_m,
            (key >> _STALE_BITS) + lo,
            (key & ((1 << _STALE_BITS) - 1)) + lo,
            self.router.cache_resolution_m,
        )
        self._stale = self._stale.compress(~touched, axis=1)
        purged = int(np.count_nonzero(touched))
        notified = (
            () if self.push is None else self.push.notify_zone(registration)
        )
        sp = self.spans
        if sp.enabled and span_ref is not None:
            index, t_us = span_ref
            steps = [
                (
                    "invalidate",
                    "frontend",
                    {"entries": int(invalidated), "stale_purged": purged},
                    (),
                )
            ]
            if self.push is not None:
                steps.append(
                    ("push_fanout", "push", {"notified": len(notified)}, ())
                )
            sp.trees(
                "mic_register", "mic", [index], t_us, "frontend",
                lambda _: steps,
            )
        return notified

    def publish_metrics(self, telemetry=None) -> None:
        """Publish the whole front-door stack into a sim-clock registry.

        Frontend counters land as ``frontend_*``; the router (and,
        when attached, the push registry) cascade their own
        ``publish_metrics``, so one call snapshots the full tier.
        Defaults to the registry attached at construction.
        """
        tel = self.telemetry if telemetry is None else telemetry
        if not tel.enabled:
            return
        tel.record_stats("frontend", self.stats.as_dict())
        self.router.publish_metrics(tel)
        if self.push is not None:
            self.push.publish_metrics(tel)
