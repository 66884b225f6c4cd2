"""The querystorm workload: a sharded cluster under storm + mobility.

This driver is the cluster subsystem's proving ground, combining three
load sources against one :class:`~repro.wsdb.cluster.router.ShardRouter`
behind one :class:`~repro.wsdb.cluster.frontend.BatchFrontend`:

* a **query storm** — ``offered_qps`` synthetic availability requests
  per simulated second, drawn uniformly over the plane and submitted as
  one burst per tick (the batch shape the frontend coalesces and, when
  a rate limit is set, sheds);
* a **roaming population** — the :mod:`~repro.wsdb.mobility` mobile
  clients, re-checking through the same frontend (so a storm can starve
  them: a shed re-check is *deferred* — the client keeps its stale
  response and retries next tick);
* a **citywide deployment** — ``num_aps`` fixed APs booted off the
  router with mic-event backup-channel recovery, exactly as in the
  citywide/roaming drivers (AP control traffic queries the router
  directly: the operator's own path is not admission-controlled).

With ``push=True`` the clients additionally register in a
:class:`~repro.wsdb.cluster.push.PushRegistry`: a mid-session
microphone registration then notifies every subscribed client whose
cell the zone touches, and the notified clients refresh **that tick**
instead of waiting for the FCC re-check rule's next trigger — closing
the pull model's violation window.  ``bench_wsdb_cluster`` asserts the
closure: pushed runs accrue strictly less ground-truth violation time
than pull-only runs of the same seed.

Everything derives from the master seed through labelled
:func:`~repro.sim.rng.stream_seed` streams, and admission/batching are
clocked by simulation time, so a run is byte-identical in any process —
the contract the ``querystorm`` run kind and ``ParallelRunner`` rely
on.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.sim.rng import stream_seed
from repro.telemetry.metrics import NULL_TELEMETRY
from repro.telemetry.spans import NULL_SPANS
from repro.traces.record import NULL_RECORDER
from repro.wsdb.citywide import (
    DEFAULT_INTERFERENCE_RADIUS_M,
    MicEvent,
    boot_aps,
    displace_covered_aps,
    generate_mic_events,
    snapshot_assigned_aps,
)
from repro.wsdb.cluster.frontend import BatchFrontend, RejectPolicy
from repro.wsdb.cluster.push import PushRegistry
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.mobility import (
    DEFAULT_SPEED_MPS,
    DEFAULT_TICK_US,
    ENGINES,
    advance_client,
    associate_nearest,
    in_violation,
    spawn_clients,
)
from repro.wsdb.service import quantize_cell, ttl_bucket
from repro.wsdb.vector import simulate_querystorm_vector

__all__ = ["StormFeed", "simulate_querystorm", "synthetic_storm"]


def synthetic_storm(
    offered_qps: float,
    tick_us: float,
    ticks: int,
    extent_m: float,
    rng: random.Random,
) -> Iterator[tuple[float, np.ndarray]]:
    """The synthetic poisson-ish storm as ``(t_us, xy)`` blocks.

    This is the workload-source seam both storm engines consume (via
    :class:`StormFeed`): per tick, a fractional request budget of
    ``offered_qps * tick_us / 1e6`` accrues and its integer part is
    drained as uniformly placed requests, yielded as one (n, 2) float64
    block per tick that has any.  Each coordinate is
    ``0.0 + (extent_m - 0.0) * rng.random()`` — what
    ``rng.uniform(0.0, extent_m)`` computes — drawn x then y per
    request, so the points are bit-identical to a per-request
    ``uniform`` stream.  Blocks are generated tick by tick; the whole
    storm is never held at once.  A recorded trace's
    :class:`~repro.traces.replay.TraceWorkload` yields the same block
    shape, which is all it takes to replay captured traffic through the
    same path.
    """
    # rng.random() never returns the -1.0 sentinel: an endless stream
    # of draws, consumed 2n at a time.
    draws = iter(rng.random, -1.0)
    budget = 0.0
    for k in range(ticks + 1):
        t_us = k * tick_us
        budget += offered_qps * tick_us / 1e6
        n = int(budget)
        budget -= n
        if n:
            u = np.fromiter(draws, np.float64, 2 * n).reshape(n, 2)
            yield t_us, 0.0 + (extent_m - 0.0) * u


class StormFeed:
    """One-block-lookahead consumer of a ``(t_us, xy)`` storm source.

    :meth:`burst` drains every pending block stamped at or before the
    tick fence, preserving source order — the burst shape the frontend
    admits and coalesces.
    """

    def __init__(self, source: Iterable[tuple[float, np.ndarray]]):
        self._it = iter(source)
        self._pending = next(self._it, None)
        #: The last burst's source timestamps, one per returned point —
        #: the enqueue stamps the frontend's latency histogram observes
        #: (a replayed trace carries sub-tick stamps; the synthetic
        #: storm stamps on the fence).  A plain list, so each stamp
        #: keeps its source's Python type (span trace ids hash its text).
        self.last_times: list[float] = []

    def burst(self, t_us: float) -> np.ndarray:
        """All queued points due at or before ``t_us``, as (n, 2)."""
        times: list[float] = []
        blocks: list[np.ndarray] = []
        pending = self._pending
        while pending is not None and pending[0] <= t_us:
            times.extend([pending[0]] * len(pending[1]))
            blocks.append(pending[1])
            pending = next(self._it, None)
        self._pending = pending
        self.last_times = times
        if not blocks:
            return np.zeros((0, 2))
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def record_requests(
    recorder: Any,
    kind: str,
    t_us: float,
    subjects: Iterable[int],
    xy: Any,
    answers: list[tuple[int, ...] | None],
    admitted: int,
    cell_of: Any,
) -> None:
    """Emit one ``query``/``recheck`` trace event per request of a burst.

    *admitted* is the burst's admitted-prefix length (the frontend's
    ``stats.admitted`` delta across the call); *cell_of* the router's
    cell convention.
    """
    for i, (subject, (x_m, y_m), answer) in enumerate(
        zip(subjects, np.asarray(xy).tolist(), answers)
    ):
        recorder.emit(
            kind,
            t_us,
            subject=subject,
            cell=cell_of(x_m, y_m),
            channels=answer,
            x=x_m,
            y=y_m,
            aux=int(i < admitted),
        )


def simulate_querystorm(
    router: ShardRouter,
    num_aps: int,
    num_clients: int,
    duration_us: float,
    seed: int,
    offered_qps: float = 0.0,
    push: bool = False,
    speed_mps: float = DEFAULT_SPEED_MPS,
    recheck_m: float | None = None,
    mic_events: int = 0,
    tick_us: float = DEFAULT_TICK_US,
    rate_limit_qps: float | None = None,
    burst_size: float | None = None,
    policy: str = RejectPolicy.name,
    interference_radius_m: float = DEFAULT_INTERFERENCE_RADIUS_M,
    engine: str = "scalar",
    storm_source: Iterable[tuple[float, float, float]] | None = None,
    recorder: Any = None,
    telemetry: Any = None,
    profiler: Any = None,
    spans: Any = None,
) -> dict[str, Any]:
    """Run one querystorm session; returns a plain-data report.

    The report is JSON-plain throughout (the ``querystorm`` run kind's
    probe routes it into an ``ExperimentResult`` unchanged).

    Args:
        router: the sharded database tier (APs, clients, and the storm
            share it).
        num_aps: fixed APs booted across the plane (citywide-style).
        num_clients: mobile clients following waypoint paths (0 runs a
            pure storm with no mobility or compliance scoring).
        duration_us: session length; the tick loop covers [0, duration].
        seed: master seed; placement, paths, storm points, and mic
            events derive from labelled streams of it.
        offered_qps: synthetic storm load (requests per simulated
            second), submitted as one burst per tick.
        push: register clients for PAWS-style zone notifications; a
            notified client refreshes immediately instead of waiting
            for its next re-check trigger.
        speed_mps: client speed along its path.
        recheck_m: movement granularity of the re-check rule (None:
            the router's own ``cache_resolution_m``).
        mic_events: mid-session microphone registrations.
        tick_us: simulation step.
        rate_limit_qps / burst_size / policy: frontend admission
            control (None rate: nothing is shed).
        interference_radius_m: AP mutual-interference radius.
        engine: "scalar" (the reference per-client loop here) or
            "vector" (the columnar numpy engine,
            :mod:`repro.wsdb.vector`).  Both produce bit-identical
            reports; "vector" is the one that scales to millions of
            clients.
        storm_source: an explicit ``(t_us, xy)`` block stream (``xy``
            an (n, 2) float array per stamp) in place of the synthetic
            generator — typically a
            :class:`~repro.traces.replay.TraceWorkload` replaying a
            recorded storm.  ``offered_qps`` is then only echoed in the
            report (pass the source run's value to make the reports
            comparable key-for-key).
        recorder: a :class:`~repro.traces.record.TraceRecorder` to
            stream dense run events into (None: the zero-overhead null
            recorder).  Recording observes only — reports are
            bit-identical with and without it.  The caller closes the
            recorder.
        telemetry: a sim-clock
            :class:`~repro.telemetry.metrics.MetricsRegistry` (None:
            the zero-overhead null sink).  When attached, the run
            samples a per-tick time series, the frontend observes
            request latencies, the whole cluster publishes its counters
            at the end, and the report gains a ``"telemetry"``
            snapshot.  Deterministic: both engines produce identical
            snapshots; with None the report is byte-identical to a
            pre-telemetry run.
        profiler: a wall-clock
            :class:`~repro.telemetry.profiler.PhaseProfiler` (None: the
            no-op profiler).  Phase instrumentation lives in the vector
            engine's batched tick stages; the scalar reference loop
            accepts the argument for signature parity but does not
            profile.  Never affects the report.
        spans: a sim-clock
            :class:`~repro.telemetry.spans.SpanRecorder` (None: the
            zero-overhead null recorder).  When attached, every storm
            query and client re-check records a request-scoped span
            tree through the frontend and every mic registration an
            invalidation/fan-out tree, and the report gains a
            ``"spans"`` table.  Deterministic: both engines emit
            byte-identical span sets; with None the report is
            byte-identical to a spans-free run.
    """
    if num_clients < 0:
        raise SimulationError(
            f"querystorm needs >= 0 clients, got {num_clients!r}"
        )
    if duration_us <= 0:
        raise SimulationError(
            f"querystorm duration must be > 0, got {duration_us!r}"
        )
    if offered_qps < 0:
        raise SimulationError(
            f"offered_qps must be >= 0, got {offered_qps!r}"
        )
    if speed_mps <= 0:
        raise SimulationError(f"speed must be > 0, got {speed_mps!r}")
    if tick_us <= 0:
        raise SimulationError(f"tick must be > 0, got {tick_us!r}")
    if recheck_m is None:
        recheck_m = router.cache_resolution_m
    if recheck_m <= 0:
        raise SimulationError(f"recheck_m must be > 0, got {recheck_m!r}")
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    if engine == "vector":
        return simulate_querystorm_vector(
            router,
            num_aps=num_aps,
            num_clients=num_clients,
            duration_us=duration_us,
            seed=seed,
            offered_qps=offered_qps,
            push=push,
            speed_mps=speed_mps,
            recheck_m=recheck_m,
            mic_events=mic_events,
            tick_us=tick_us,
            rate_limit_qps=rate_limit_qps,
            burst_size=burst_size,
            policy=policy,
            interference_radius_m=interference_radius_m,
            storm_source=storm_source,
            recorder=recorder,
            telemetry=telemetry,
            profiler=profiler,
            spans=spans,
        )

    if recorder is None:
        recorder = NULL_RECORDER
    recording = recorder.enabled
    tel = NULL_TELEMETRY if telemetry is None else telemetry
    tel_on = tel.enabled
    sp = NULL_SPANS if spans is None else spans
    sp_on = sp.enabled
    registry = PushRegistry(router.cache_resolution_m) if push else None
    frontend = BatchFrontend(
        router,
        rate_limit_qps=rate_limit_qps,
        burst_size=burst_size,
        policy=policy,
        push=registry,
        telemetry=tel,
        spans=sp,
    )

    extent_m = router.metro.extent_m
    aps = boot_aps(
        router, num_aps, seed, "querystorm-aps", interference_radius_m
    )

    clients = spawn_clients(num_clients, seed, "querystorm-client", extent_m)

    events = generate_mic_events(
        mic_events,
        duration_us,
        extent_m,
        router.metro.num_channels,
        stream_seed(seed, "querystorm-mics"),
    )
    next_event = 0
    displaced = backup_recoveries = full_reassignments = outages = 0

    requeries = [0] * num_clients
    handoffs = [0] * num_clients
    vacations = [0] * num_clients
    connected = [0] * num_clients
    violations = [0] * num_clients
    disconnected_ticks = 0
    deferred_requeries = 0
    push_refreshes = 0
    storm_queries = 0
    total_handoffs = 0
    # First-attempt time of a deferred re-check, per client: when a shed
    # re-check finally lands, the latency histogram observes the wait
    # from the *first* attempt, not the successful retry.
    pending_since: list[float | None] = [None] * num_clients

    def register_event(event: MicEvent, index: int) -> tuple[int, ...]:
        nonlocal displaced, backup_recoveries, full_reassignments, outages
        registration = event.registration()
        notified = frontend.register_mic(
            registration,
            span_ref=(index, event.t_us) if sp_on else None,
        )
        if recording:
            mic_cell = quantize_cell(
                event.x_m, event.y_m, router.cache_resolution_m
            )
            recorder.emit(
                "mic",
                event.t_us,
                subject=index,
                cell=mic_cell,
                channels=(event.uhf_index,),
                x=event.x_m,
                y=event.y_m,
                aux=event.uhf_index,
            )
            for device in notified:
                recorder.emit(
                    "push",
                    event.t_us,
                    subject=device,
                    cell=mic_cell,
                    channels=(event.uhf_index,),
                    aux=index,
                )
        d, b, r, o = displace_covered_aps(
            router, aps, event, registration, interference_radius_m
        )
        displaced += d
        backup_recoveries += b
        full_reassignments += r
        outages += o
        return notified

    live_aps, spans_by_id = snapshot_assigned_aps(aps)

    step_m = speed_mps * tick_us / 1e6
    ticks = int(duration_us // tick_us)
    if storm_source is None:
        storm_source = synthetic_storm(
            offered_qps,
            tick_us,
            ticks,
            extent_m,
            random.Random(stream_seed(seed, "querystorm-load")),
        )
    feed = StormFeed(storm_source)
    viol_open = [False] * num_clients
    # Undelivered push notifications: a notified client leaves this set
    # only once its refresh query is actually admitted, so admission
    # control can delay — but never silently drop — a notification.
    pushed: set[int] = set()
    for k in range(ticks + 1):
        t_us = k * tick_us
        tick_violating = 0
        # Mic registrations whose session starts by this tick go live:
        # cached and stale responses inside the zone are invalidated,
        # covered APs walk their backups, and — under push — subscribed
        # clients in the zone are notified for same-tick refresh.
        fired = False
        while next_event < len(events) and events[next_event].t_us <= t_us:
            pushed.update(register_event(events[next_event], next_event))
            next_event += 1
            fired = True
        if fired:
            live_aps, spans_by_id = snapshot_assigned_aps(aps)

        # The storm burst goes first: background load contends for
        # admission tokens ahead of the clients' re-checks, which is
        # the starvation scenario shed policies exist for.
        points = feed.burst(t_us)
        if len(points):
            seqs = range(storm_queries, storm_queries + len(points))
            storm_queries += len(points)
            admitted = frontend.stats.admitted
            responses = frontend.query_batch(
                points,
                t_us,
                enqueue_t_us=feed.last_times,
                span_refs=[("storm", j) for j in seqs] if sp_on else None,
            )
            if recording:
                record_requests(
                    recorder, "query", t_us, seqs, points, responses,
                    frontend.stats.admitted - admitted, router.cell_of,
                )

        # Pass 1: advance, subscribe, and detect.  The re-check rule,
        # plus the push escape hatch: a client notified this tick
        # refreshes immediately instead of riding its stale response
        # to the next crossing/expiry.
        bucket = ttl_bucket(t_us, router.ttl_us)
        cells: list[tuple[int, int]] = []
        due: list[Any] = []
        for client in clients:
            if k > 0:
                advance_client(client, step_m, extent_m)
            if registry is not None:
                registry.subscribe(
                    client.client_id,
                    *router.cell_of(client.x_m, client.y_m),
                )
            cell = quantize_cell(client.x_m, client.y_m, recheck_m)
            cells.append(cell)
            if (
                cell != client.last_cell
                or bucket != client.last_bucket
                or client.client_id in pushed
            ):
                due.append(client)

        # The tick's re-checkers go to the frontend as one burst in
        # client order, each stamped with its first attempt's time.
        if due:
            stamps = [
                t_us if pending_since[c.client_id] is None
                else pending_since[c.client_id]
                for c in due
            ]
            xy = [(c.x_m, c.y_m) for c in due]
            admitted = frontend.stats.admitted
            responses = frontend.query_batch(
                xy,
                t_us,
                enqueue_t_us=stamps,
                span_refs=(
                    [("recheck", c.client_id) for c in due] if sp_on else None
                ),
            )
            if recording:
                record_requests(
                    recorder, "recheck", t_us, [c.client_id for c in due],
                    xy, responses, frontend.stats.admitted - admitted,
                    router.cell_of,
                )
            for client, since, response in zip(due, stamps, responses):
                cid = client.client_id
                if response is None:
                    # Shed without a stale fallback: keep the old
                    # response and retry next tick (the deferral the
                    # reject policy produces under storm starvation).
                    deferred_requeries += 1
                    pending_since[cid] = since
                else:
                    client.known_free = frozenset(response)
                    client.last_cell = cells[cid]
                    client.last_bucket = bucket
                    requeries[cid] += 1
                    pending_since[cid] = None
                    if cid in pushed:
                        push_refreshes += 1
                        pushed.discard(cid)

        # Pass 2: associate and score.
        for client, cell in zip(clients, cells):
            prev = client.ap
            prev_spans = (
                spans_by_id.get(prev.ap_id) if prev is not None else None
            )
            if prev_spans is not None and not prev_spans <= client.known_free:
                vacations[client.client_id] += 1
            client.ap = associate_nearest(
                client.x_m, client.y_m, client.known_free, live_aps
            )
            if client.ap is None:
                disconnected_ticks += 1
                if recording and viol_open[client.client_id]:
                    recorder.emit(
                        "violation_close",
                        t_us,
                        subject=client.client_id,
                        cell=cell,
                        x=client.x_m,
                        y=client.y_m,
                        aux=0,
                    )
                    viol_open[client.client_id] = False
                continue
            if prev is not None and client.ap.ap_id != prev.ap_id:
                handoffs[client.client_id] += 1
                total_handoffs += 1
                if recording:
                    recorder.emit(
                        "handoff",
                        t_us,
                        subject=client.client_id,
                        cell=cell,
                        channels=tuple(
                            sorted(client.ap.channel.spanned_indices)
                        ),
                        x=client.x_m,
                        y=client.y_m,
                        aux=client.ap.ap_id,
                    )
            connected[client.client_id] += 1
            # Ground-truth compliance (reference linear scan off the
            # base metro — never a shard query, so measuring does not
            # perturb cluster stats).
            violating = in_violation(
                router.metro,
                client.x_m,
                client.y_m,
                t_us,
                client.ap.channel.spanned_indices,
            )
            if violating:
                violations[client.client_id] += 1
                tick_violating += 1
            if recording:
                if violating and not viol_open[client.client_id]:
                    recorder.emit(
                        "violation_open",
                        t_us,
                        subject=client.client_id,
                        cell=cell,
                        channels=tuple(
                            sorted(client.ap.channel.spanned_indices)
                        ),
                        x=client.x_m,
                        y=client.y_m,
                    )
                    viol_open[client.client_id] = True
                elif not violating and viol_open[client.client_id]:
                    recorder.emit(
                        "violation_close",
                        t_us,
                        subject=client.client_id,
                        cell=cell,
                        x=client.x_m,
                        y=client.y_m,
                        aux=0,
                    )
                    viol_open[client.client_id] = False

        if tel_on:
            agg = router.aggregate_stats()
            tel.sample_tick(
                t_us,
                queries=agg.queries,
                cache_hits=agg.cache_hits,
                requests=frontend.stats.requests,
                shed=frontend.stats.shed,
                pushes=(
                    registry.stats.notifications
                    if registry is not None
                    else 0
                ),
                handoffs=total_handoffs,
                violating=tick_violating,
            )

    if recording:
        # Still-open violation windows close at the end of the run,
        # marked aux=1 so analyses can tell truncation from recovery.
        end_us = ticks * tick_us
        for client in clients:
            if viol_open[client.client_id]:
                recorder.emit(
                    "violation_close",
                    end_us,
                    subject=client.client_id,
                    cell=quantize_cell(client.x_m, client.y_m, recheck_m),
                    x=client.x_m,
                    y=client.y_m,
                    aux=1,
                )

    # Events past the last evaluated tick register anyway, mirroring
    # the citywide/roaming process-every-event semantics.
    while next_event < len(events):
        register_event(events[next_event], next_event)
        next_event += 1

    connected_ticks = sum(connected)
    violation_ticks = sum(violations)
    client_ticks = num_clients * (ticks + 1)
    if tel_on:
        frontend.publish_metrics(tel)
        tel.counter("storm_queries").inc(storm_queries)
        tel.counter("requeries").inc(sum(requeries))
        tel.counter("deferred_requeries").inc(deferred_requeries)
        tel.counter("push_refreshes").inc(push_refreshes)
        tel.counter("handoffs").inc(total_handoffs)
        tel.counter("vacations").inc(sum(vacations))
        tel.counter("violation_ticks").inc(violation_ticks)
        tel.counter("connected_ticks").inc(connected_ticks)
        tel.counter("disconnected_ticks").inc(disconnected_ticks)
    report = {
        "num_aps": num_aps,
        "num_clients": num_clients,
        "num_shards": router.num_shards,
        "shard_grid": router.grid,
        "duration_us": duration_us,
        "tick_us": tick_us,
        "speed_mps": speed_mps,
        "recheck_m": recheck_m,
        "extent_m": extent_m,
        "offered_qps": offered_qps,
        "push": push,
        "rate_limit_qps": rate_limit_qps,
        "shed_policy": policy,
        "storm_queries": storm_queries,
        "assigned_aps": sum(1 for ap in aps if ap.channel is not None),
        "requeries": sum(requeries),
        "deferred_requeries": deferred_requeries,
        "push_refreshes": push_refreshes,
        "handoffs": sum(handoffs),
        "vacations": sum(vacations),
        "connected_ticks": connected_ticks,
        "disconnected_ticks": disconnected_ticks,
        "connected_fraction": (
            connected_ticks / client_ticks if client_ticks else 0.0
        ),
        "violation_ticks": violation_ticks,
        "violation_us": violation_ticks * tick_us,
        "violation_free_fraction": (
            1.0 - violation_ticks / connected_ticks if connected_ticks else 1.0
        ),
        "mic_events": len(events),
        "displaced_aps": displaced,
        "backup_recoveries": backup_recoveries,
        "full_reassignments": full_reassignments,
        "outages": outages,
        "per_client": tuple(
            (i, requeries[i], handoffs[i], vacations[i], connected[i])
            for i in range(num_clients)
        ),
        "final_cells": tuple(
            quantize_cell(c.x_m, c.y_m, recheck_m) for c in clients
        ),
        "frontend": frontend.stats.as_dict(),
        "push_stats": (
            registry.stats.as_dict() if registry is not None else None
        ),
        "db": router.stats_dict(),
        "per_shard": router.per_shard_stats(),
    }
    if tel_on:
        report["telemetry"] = tel.snapshot()
    if sp_on:
        report["spans"] = sp.snapshot()
    return report
