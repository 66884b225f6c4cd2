"""The cluster front door: batched queries, admission control, shedding.

A city under load does not send the database one polite query at a
time — it sends *bursts*: every AP re-checking at a TTL edge, every
client in a commuter flow crossing cells in the same tick, a survey
sweep.  :class:`BatchFrontend` is the service tier's front end for that
shape of traffic:

* **Coalescing.**  A burst handed to :meth:`query_batch` is grouped by
  owning shard and deduplicated by quantization cell before any shard
  is touched: N requests in one cell become one shard lookup whose
  response every requester shares (the counters record how many
  requests coalesced away).  Each shard then sees one batched call per
  burst, not one call per request.
* **Token-bucket rate limiting.**  The frontend admits requests against
  a bucket refilled at ``rate_limit_qps`` (burst capacity
  ``burst_size``), clocked by *simulation* time — admission is a pure
  function of the request sequence, preserving the byte-identical
  parallel/sequential contract.
* **Pluggable shed policies.**  An over-limit request is *shed* through
  a policy: ``"reject"`` returns None (the device keeps its stale
  response and retries — the deferral the querystorm driver counts),
  ``"serve-stale"`` answers from the frontend's last-known response for
  the cell, trading admission for availability.  Policies register in
  :data:`SHED_POLICIES`; a load-balancer experiment can plug its own.

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
from typing import Any, Protocol, Sequence

from repro.errors import SimulationError, SpectrumMapError
from repro.telemetry.metrics import (
    DEFAULT_BATCH_BOUNDS,
    DEFAULT_LATENCY_BOUNDS_US,
    NULL_TELEMETRY,
)
from repro.telemetry.spans import NULL_SPANS, lookup_steps
from repro.wsdb.cluster.push import PushRegistry
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.index import circle_intersects_cell
from repro.wsdb.model import MicRegistration
from repro.wsdb.service import ttl_bucket

__all__ = [
    "BatchFrontend",
    "FrontendStats",
    "RejectPolicy",
    "SHED_POLICIES",
    "ServeStalePolicy",
    "ShedPolicy",
    "TokenBucket",
    "shed_policy",
]


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

    def admit(self, t_us: float) -> bool:
        """Consume one token at *t_us*; False when the bucket is dry.

        Time never runs backwards here: a *t_us* behind the last
        observed clock refills nothing (out-of-order queries cannot
        mint tokens).
        """
        if self.rate_qps is None:
            return True
        if t_us > self._last_t_us:
            self._tokens = min(
                self.burst_size,
                self._tokens + (t_us - self._last_t_us) * self.rate_qps / 1e6,
            )
            self._last_t_us = t_us
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False


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


class ShedPolicy(Protocol):
    """How the frontend answers an over-limit request."""

    name: str

    def shed(
        self, frontend: "BatchFrontend", qx: int, qy: int
    ) -> tuple[int, ...] | None:
        """The response for a shed request at cell (qx, qy), or None."""
        ...


class RejectPolicy:
    """Shed by refusal: the requester gets None and must retry later."""

    name = "reject"

    def shed(
        self, frontend: "BatchFrontend", qx: int, qy: int
    ) -> tuple[int, ...] | None:
        return None


class ServeStalePolicy:
    """Shed by degrading: answer from the last-known cell response.

    Falls back to refusal when the cell was never served in the
    current TTL bucket (a cold or expired cell has nothing still-valid
    to offer).
    """

    name = "serve-stale"

    def shed(
        self, frontend: "BatchFrontend", qx: int, qy: int
    ) -> tuple[int, ...] | None:
        stale = frontend.stale_response(qx, qy)
        if stale is not None:
            frontend.stats.served_stale += 1
        return stale


#: Registered shed policies by name; plug new ones in directly.
SHED_POLICIES: dict[str, type] = {
    RejectPolicy.name: RejectPolicy,
    ServeStalePolicy.name: ServeStalePolicy,
}


def shed_policy(name: str) -> ShedPolicy:
    """Instantiate a registered shed policy by name."""
    try:
        return SHED_POLICIES[name]()
    except KeyError:
        raise SimulationError(
            f"unknown shed policy {name!r}; "
            f"expected one of {tuple(sorted(SHED_POLICIES))}"
        ) from None


class BatchFrontend:
    """Admission control + per-shard batching over a :class:`ShardRouter`.

    Args:
        router: the shard tier answering admitted requests.
        rate_limit_qps: token-bucket refill rate (None: no limiting).
        burst_size: token-bucket capacity (None: one second's refill).
        policy: shed-policy name from :data:`SHED_POLICIES`.
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
            served request records a full admission → shard-lookup →
            cache span tree and every shed attempt a ``shed_defer``;
            None keeps the path byte-identical.
    """

    def __init__(
        self,
        router: ShardRouter,
        rate_limit_qps: float | None = None,
        burst_size: float | None = None,
        policy: str = RejectPolicy.name,
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
        self.router = router
        self.bucket = TokenBucket(rate_limit_qps, burst_size)
        self.policy = shed_policy(policy)
        self.push = push
        self.telemetry = NULL_TELEMETRY if telemetry is None else telemetry
        self.spans = NULL_SPANS if spans is None else spans
        self.stats = FrontendStats()
        # cell -> (TTL bucket the response was computed in, channels).
        self._stale: dict[tuple[int, int], tuple[int, tuple[int, ...]]] = {}
        self._bucket_now = 0
        # The last burst's admission plan, one (cell, admitted) entry
        # per request in request order.  A serve-stale shed returns
        # channels just like an admitted request, so the return value
        # alone can't tell callers (e.g. trace recorders) what the
        # admission outcome was — the plan can.
        self.last_plan: list[tuple[tuple[int, int], bool]] = []

    def stale_response(self, qx: int, qy: int) -> tuple[int, ...] | None:
        """The cell's last response, if it is still inside its TTL bucket.

        A response from an earlier bucket is dead under the protocol's
        validity contract (the database itself would recompute), so it
        is never served — serve-stale trades *admission*, not validity.
        """
        entry = self._stale.get((qx, qy))
        if entry is None or entry[0] != self._bucket_now:
            return None
        return entry[1]

    # -- queries -------------------------------------------------------------

    def query_batch(
        self,
        points: Sequence[tuple[float, float]],
        t_us: float = 0.0,
        enqueue_t_us: Sequence[float] | None = None,
        span_refs: Sequence[tuple[str, Any]] | None = None,
    ) -> list[tuple[int, ...] | None]:
        """Answer a burst: admit, coalesce by cell, batch per shard.

        Returns one entry per point in point order — a channel tuple,
        or None for a request shed without a stale fallback.  Admission
        is evaluated per request in order (the bucket sees the burst
        the way a wire would deliver it), then admitted requests
        deduplicate to one shard lookup per distinct cell.

        ``enqueue_t_us`` optionally stamps each request's enqueue time
        (storm-event generation, or the first attempt of a deferred
        re-check); a served request then observes ``t_us - enqueue``
        into the latency histogram.  Today's frontend is synchronous —
        a request serves inside its own call, so the unstamped latency
        is honestly zero — but the stamp plumbing is exactly what the
        ROADMAP's pipelined async tier will feed with real
        queue-residency times.

        ``span_refs`` optionally labels each request with a
        ``(req, subject)`` identity for the attached span recorder
        (e.g. ``("storm", sequence)`` / ``("recheck", client_id)``);
        trace ids derive from the label plus the enqueue stamp, so a
        deferred request's retries accumulate into one trace.
        """
        if not points:
            return []
        self.stats.batches += 1
        self.stats.requests += len(points)
        self._bucket_now = ttl_bucket(t_us, self.router.ttl_us)
        # Pass 1: admission.  Each entry is (cell, admitted).
        plan: list[tuple[tuple[int, int], bool]] = []
        for x_m, y_m in points:
            cell = self.router.cell_of(x_m, y_m)
            admitted = self.bucket.admit(t_us)
            if admitted:
                self.stats.admitted += 1
            else:
                self.stats.shed += 1
            plan.append((cell, admitted))
        self.last_plan = plan
        # Pass 2: group the admitted cells by owning shard, deduped.
        by_shard: dict[int, list[tuple[int, int]]] = {}
        seen: set[tuple[int, int]] = set()
        admitted_count = 0
        for cell, admitted in plan:
            if not admitted:
                continue
            admitted_count += 1
            if cell in seen:
                continue
            seen.add(cell)
            by_shard.setdefault(self.router.shard_of_cell(*cell), []).append(
                cell
            )
        self.stats.coalesced += admitted_count - len(seen)
        # Pass 3: one batched call per shard, in shard order (the
        # deterministic order the parallel/sequential contract needs).
        span_on = self.spans.enabled and span_refs is not None
        lookups: dict[tuple[int, int], tuple[int, bool, int]] = {}
        responses: dict[tuple[int, int], tuple[int, ...]] = {}
        for shard_id in sorted(by_shard):
            self.stats.shard_batches += 1
            shard = self.router.shards[shard_id]
            cells = by_shard[shard_id]
            responses.update(zip(cells, shard.channels_in_cells(cells, t_us)))
            if span_on:
                for cell, (hit, scanned) in zip(cells, shard.last_outcomes):
                    lookups[cell] = (shard_id, hit, scanned)
        for cell, channels in responses.items():
            self._stale[cell] = (self._bucket_now, channels)
        # Pass 4: answer in request order; shed requests go through the
        # policy (which may read the just-refreshed stale store).
        answers = [
            responses[cell] if admitted else self.policy.shed(self, *cell)
            for cell, admitted in plan
        ]
        if span_on:
            self._record_spans(
                plan, answers, lookups, t_us, enqueue_t_us, span_refs
            )
        tel = self.telemetry
        if tel.enabled:
            tel.histogram(
                "frontend_batch_requests", DEFAULT_BATCH_BOUNDS
            ).observe(float(len(points)))
            latency = tel.histogram(
                "frontend_latency_us", DEFAULT_LATENCY_BOUNDS_US
            )
            for i, answer in enumerate(answers):
                if answer is None:
                    continue
                enqueued = t_us if enqueue_t_us is None else enqueue_t_us[i]
                latency.observe(t_us - enqueued)
        return answers

    def _record_spans(
        self,
        plan: list[tuple[tuple[int, int], bool]],
        answers: list[tuple[int, ...] | None],
        lookups: dict[tuple[int, int], tuple[int, bool, int]],
        t_us: float,
        enqueue_t_us: Sequence[float] | None,
        span_refs: Sequence[tuple[str, Any]],
    ) -> None:
        """Record one span tree (or a defer) per request of the burst.

        Replays the batch's own classification in request order: the
        first admitted request per cell is the *primary* (it carries
        the shard lookup's cache-hit/scan spans), later admitted
        requests for the same cell are ``coalesced``, and shed
        requests either defer (answer None) or serve from the stale
        store.
        """
        sp = self.spans
        primary: set[tuple[int, int]] = set()
        for i, ((cell, admitted), answer) in enumerate(zip(plan, answers)):
            req, subject = span_refs[i]
            enq = t_us if enqueue_t_us is None else enqueue_t_us[i]
            tid = sp.request_begin(req, subject, enq)
            if not admitted:
                sp.request_defer(tid, t_us)
                if answer is None:
                    continue
                sp.request_serve(
                    tid, t_us, "frontend",
                    [("stale_serve", "frontend", {}, ())],
                )
                continue
            if cell in lookups and cell not in primary:
                primary.add(cell)
                shard_id, hit, scanned = lookups[cell]
                steps = [
                    ("admission", "frontend", {}, ()),
                    lookup_steps(hit, scanned, f"shard{shard_id}", shard=True),
                ]
            else:
                steps = [
                    ("admission", "frontend", {}, ()),
                    ("coalesced", "frontend", {}, ()),
                ]
            sp.request_serve(tid, t_us, "frontend", steps)

    def query(
        self,
        x_m: float,
        y_m: float,
        t_us: float = 0.0,
        enqueue_t_us: float | None = None,
        span_ref: tuple[str, Any] | None = None,
    ) -> tuple[int, ...] | None:
        """One request through the same admission/batching path."""
        stamps = None if enqueue_t_us is None else [enqueue_t_us]
        refs = None if span_ref is None else [span_ref]
        return self.query_batch(
            [(x_m, y_m)], t_us, enqueue_t_us=stamps, span_refs=refs
        )[0]

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
        purged = [
            cell
            for cell in self._stale
            if circle_intersects_cell(
                registration.x_m,
                registration.y_m,
                registration.radius_m,
                *cell,
                self.router.cache_resolution_m,
            )
        ]
        for cell in purged:
            del self._stale[cell]
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
                    {"entries": int(invalidated), "stale_purged": len(purged)},
                    (),
                )
            ]
            if self.push is not None:
                steps.append(
                    ("push_fanout", "push", {"notified": len(notified)}, ())
                )
            sp.record_tree("mic_register", "mic", index, t_us, "frontend", steps)
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
