"""The one tick loop behind every mobile-fleet session.

:func:`~repro.wsdb.mobility.simulate_roaming` and
:func:`~repro.wsdb.cluster.querystorm.simulate_querystorm` validate
their arguments, build a *query path* and hand it to :func:`run_session`,
which runs the world both share over a *fleet*:

* the **fleet** holds the clients — :class:`~repro.wsdb.vector.VectorFleet`
  (columnar numpy stages) or :class:`ScalarFleet` (the per-client
  reference, the oracle the vector engine is held to).  ``engine``
  picks the class; nothing else in the loop depends on it.
* the **query path** is where re-checks go — :class:`DatabasePath`
  (straight to the database: the roaming world) or
  :class:`ClusterPath` (the cluster frontend, with the query storm,
  admission control and optional push: the querystorm world).

Each tick: fire due mic events through the path and re-snapshot the
APs; send the storm burst (cluster only); advance the fleet; subscribe
movers (cluster with push); detect re-checks (cell crossing, TTL edge,
or a push); send the re-checkers to the path as one burst in client
order; commit the answers; associate and score; then record and
sample.  Everything whose order a service can observe (LRU cache,
token-bucket admission, push subscriptions) is driven in client order,
so both fleets produce identical reports, traces, span tables and
telemetry snapshots.
"""

from __future__ import annotations

import random
from typing import Any

import numpy as np

from repro.sim.rng import stream_seed
from repro.telemetry.metrics import NULL_TELEMETRY
from repro.telemetry.profiler import NULL_PROFILER
from repro.telemetry.spans import NULL_SPANS, lookup_steps
from repro.traces.record import NULL_RECORDER
from repro.wsdb.citywide import (
    boot_aps,
    displace_covered_aps,
    generate_mic_events,
    record_mic,
    record_requests,
    snapshot_assigned_aps,
)
from repro.wsdb.cluster.frontend import BatchFrontend
from repro.wsdb.cluster.push import PushRegistry
from repro.wsdb.cluster.querystorm import StormFeed, synthetic_storm
from repro.wsdb.mobility import (
    advance_position,
    associate_nearest,
    in_violation,
    spawn_clients,
)
from repro.wsdb.service import quantize_cell, ttl_bucket
from repro.wsdb.vector import VectorFleet

__all__ = ["ClusterPath", "DatabasePath", "ScalarFleet", "run_session"]


class ScalarFleet(VectorFleet):
    """The per-client reference fleet: the oracle of the vector engine.

    It shares :class:`~repro.wsdb.vector.VectorFleet`'s columns,
    response table, AP snapshot and re-check bookkeeping (``recheck_due``,
    ``commit_recheck``), but computes the three stages that carry the
    model one client at a time with the scalar reference functions:
    :func:`~repro.wsdb.mobility.advance_position`,
    :func:`~repro.wsdb.service.quantize_cell`, and
    :func:`~repro.wsdb.mobility.associate_nearest` /
    :func:`~repro.wsdb.mobility.in_violation` with vacation checked
    against each client's own response.  Waypoints come from the
    Python-int form of the counter-based draw
    (:func:`~repro.wsdb.mobility.waypoint`), the vector engine's from
    its ``uint64`` array form.  The parity suite compares the two, so
    none of these may be shared.
    """

    def set_snapshot(self, live_aps, num_aps: int) -> None:
        super().set_snapshot(live_aps, num_aps)
        self._live_aps = live_aps
        self._spans_by_id = {ap.ap_id: spans for ap, spans in live_aps}

    def advance(self, step_m: float) -> None:
        """Advance each walker in turn with :func:`advance_position`."""
        xs, ys = self.x.tolist(), self.y.tolist()
        wxs, wys = self.wx.tolist(), self.wy.tolist()
        drawn = self.drawn.tolist()
        for i in range(self.n):
            xs[i], ys[i], wxs[i], wys[i], drawn[i] = advance_position(
                xs[i], ys[i], wxs[i], wys[i], drawn[i], self.key, i,
                step_m, self.extent_m,
            )
        self.x[:], self.y[:], self.wx[:], self.wy[:] = xs, ys, wxs, wys
        self.drawn[:] = drawn

    def cells(self, resolution_m: float) -> tuple[np.ndarray, np.ndarray]:
        """Each client's :func:`quantize_cell` at *resolution_m*."""
        cells = np.array(
            [
                quantize_cell(x, y, resolution_m)
                for x, y in zip(self.x.tolist(), self.y.tolist())
            ],
            dtype=np.int64,
        ).reshape(self.n, 2)
        return cells[:, 0], cells[:, 1]

    def associate_and_score(
        self, metro, t_us: float, profiler: Any = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One tick of vacation, association, handoff, and compliance,
        client by client; returns the same outcome arrays as
        :meth:`VectorFleet.associate_and_score`."""
        prof = NULL_PROFILER if profiler is None else profiler
        xs, ys = self.x.tolist(), self.y.tolist()
        with prof.phase("associate"):
            prev_ap = self.prev_ap.tolist()
            aps, vacated, handoff = [], [], []
            for x, y, rid, prev in zip(xs, ys, self.resp_id.tolist(), prev_ap):
                # A previously-associated AP whose channel the response
                # now denies forces a channel vacation.
                known_free = self.responses.sets[rid]
                prev_spans = self._spans_by_id.get(prev)
                vacated.append(
                    prev_spans is not None and not prev_spans <= known_free
                )
                ap = associate_nearest(x, y, known_free, self._live_aps)
                aps.append(ap)
                handoff.append(
                    ap is not None and prev >= 0 and ap.ap_id != prev
                )
            new_ap = np.array(
                [-1 if ap is None else ap.ap_id for ap in aps], dtype=np.int64
            )
            connected = new_ap >= 0
            handoff_mask = np.array(handoff, dtype=bool)
            self.vacations[np.array(vacated, dtype=bool)] += 1
            self.handoffs[handoff_mask] += 1
            self.connected[connected] += 1
            self.disconnected_ticks += int(np.count_nonzero(~connected))
            self.prev_ap = new_ap
        with prof.phase("compliance"):
            # A violation means the client transmitted on a channel
            # protected at its true position between re-checks.
            violating = np.array(
                [
                    ap is not None
                    and in_violation(
                        metro, x, y, t_us, ap.channel.spanned_indices
                    )
                    for ap, x, y in zip(aps, xs, ys)
                ],
                dtype=bool,
            )
            self.violations[violating] += 1
        best_col = np.where(
            connected, self._col_of[np.clip(new_ap, 0, None)], -1
        )
        return connected, new_ap, best_col, handoff_mask, violating


class DatabasePath:
    """Re-checks go straight to the database (the roaming world).

    The database never sheds, so every due client is answered.
    """

    stream = "roaming"
    pushed = None

    def __init__(self, db, recheck_m: float):
        self.db = db
        # Trigger cells double as query cells when the granularities
        # match (the intended configuration).
        self.aligned = recheck_m == db.cache_resolution_m

    def open(self, recorder, tel, sp):
        """Attach the observers; returns the service APs boot against."""
        self.recorder, self.sp = recorder, sp
        return self.db

    def start(self, n: int, ticks: int, tick_us: float, seed: int) -> None:
        pass

    def register_mic(self, event, index: int, registration) -> tuple:
        invalidated = self.db.register_mic(registration)
        if self.sp.enabled:
            steps = [("invalidate", "db", {"entries": int(invalidated)}, ())]
            self.sp.trees(
                "mic_register", "mic", [index], event.t_us, "db",
                lambda _: steps,
            )
        return ()

    def storm(self, t_us: float, prof) -> None:
        pass

    def subscribe(self, fleet) -> None:
        pass

    def recheck(self, fleet, due, trig_x, trig_y, t_us: float):
        """Due clients' *query* cells (the database's own resolution)
        in client order, as one batch; returns ``(answered, ids)``."""
        db = self.db
        if self.aligned:
            qx, qy = trig_x, trig_y
        else:
            qx, qy = fleet.cells(db.cache_resolution_m)
        cells = np.column_stack((qx[due], qy[due]))
        ids, hit, scanned, _ = db.response_ids_in_cells(cells, t_us)
        if self.sp.enabled:
            # The batch's per-cell outcomes, per client in client order;
            # each lookup is a request served at once (zero latency).
            self.sp.trees(
                "request",
                "roam",
                due,
                t_us,
                "db",
                lambda j: [lookup_steps(bool(hit[j]), scanned[j], "db")],
                served=True,
            )
        if self.recorder.enabled:
            record_requests(
                self.recorder, "recheck", t_us, due.tolist(),
                np.column_stack((fleet.x[due], fleet.y[due])), ids,
                len(due), db,
            )
        return due, ids

    def sample(self, fleet) -> dict[str, int]:
        return {
            "queries": self.db.stats.queries,
            "cache_hits": self.db.stats.cache_hits,
            "requeries": int(fleet.requeries.sum()),
        }

    def publish(self, tel) -> None:
        self.db.publish_metrics(tel)

    def finish(self, report: dict[str, Any]) -> None:
        report["requeries_per_client"] = (
            report["requeries"] / report["num_clients"]
        )
        report["db"] = self.db.stats.as_dict()


class ClusterPath:
    """Re-checks go through the cluster frontend (the querystorm world).

    A synthetic (or replayed) query storm contends for admission
    tokens ahead of the clients' re-checks each tick.  A shed re-check
    without a stale fallback is *deferred*: the client keeps its old
    response and retries next tick, its latency measured from the first
    attempt.  With push, a mic registration notifies subscribed clients
    in the zone, and they refresh that tick instead of waiting for the
    re-check rule.
    """

    stream = "querystorm"

    def __init__(
        self,
        router,
        offered_qps: float,
        push: bool,
        rate_limit_qps: float | None,
        burst_size: float | None,
        policy: str,
        storm_source: Any,
    ):
        self.router = router
        self.offered_qps = offered_qps
        self.push = push
        self.rate_limit_qps = rate_limit_qps
        self.burst_size = burst_size
        self.policy = policy
        self.storm_source = storm_source

    def open(self, recorder, tel, sp):
        """Attach the observers and build the frontend; returns the
        service APs boot against (the router: the operator's own
        control traffic is not admission-controlled)."""
        self.recorder, self.sp = recorder, sp
        router = self.router
        self.registry = (
            PushRegistry(router.cache_resolution_m) if self.push else None
        )
        self.frontend = BatchFrontend(
            router,
            rate_limit_qps=self.rate_limit_qps,
            burst_size=self.burst_size,
            policy=self.policy,
            push=self.registry,
            telemetry=tel,
            spans=sp,
        )
        return router

    def start(self, n: int, ticks: int, tick_us: float, seed: int) -> None:
        source = self.storm_source
        if source is None:
            source = synthetic_storm(
                self.offered_qps,
                tick_us,
                ticks,
                self.router.metro.extent_m,
                random.Random(stream_seed(seed, "querystorm-load")),
            )
        self.feed = StormFeed(source)
        self.storm_queries = self.deferred = self.push_refreshes = 0
        # First-attempt stamps of deferred re-checks.  A plain list, so
        # each stamp keeps its Python type (a kept span tree's
        # ``latency_us`` is computed from it as given).
        self.pending_since: list[float | None] = [None] * n
        # Undelivered push notifications: cleared only once the refresh
        # is admitted, so admission control can delay — but never
        # silently drop — a notification.
        self.pushed = np.zeros(n, dtype=bool)

    def register_mic(self, event, index: int, registration) -> tuple:
        """Invalidate through the frontend; returns the notified ids."""
        notified = self.frontend.register_mic(
            registration,
            span_ref=(index, event.t_us) if self.sp.enabled else None,
        )
        self.pushed[list(notified)] = True
        return notified

    def storm(self, t_us: float, prof) -> None:
        """The tick's storm burst: background load is admitted ahead of
        the clients' re-checks (the starvation shed policies exist for)."""
        with prof.phase("storm-gen"):
            points = self.feed.burst(t_us)
        if not len(points):
            return
        seqs = range(self.storm_queries, self.storm_queries + len(points))
        self.storm_queries += len(points)
        frontend = self.frontend
        admitted = frontend.stats.admitted
        with prof.phase("frontend"):
            answers = frontend.query_batch(
                points,
                t_us,
                enqueue_t_us=self.feed.last_times,
                span_refs=(
                    ("storm", np.arange(seqs.start, seqs.stop))
                    if self.sp.enabled
                    else None
                ),
            )
        if self.recorder.enabled:
            record_requests(
                self.recorder, "query", t_us, seqs, points, answers,
                frontend.stats.admitted - admitted, self.router,
            )

    def subscribe(self, fleet) -> None:
        """(Re-)subscribe every client to its current cell; the
        registry skips the clients that stayed in their cell."""
        if self.registry is not None:
            self.registry.subscribe(
                np.arange(fleet.n), *fleet.cells(self.router.cache_resolution_m)
            )

    def recheck(self, fleet, due, trig_x, trig_y, t_us: float):
        """The due clients as one frontend burst in client order, each
        stamped with its first attempt; returns ``(answered, ids)``."""
        idx = due.tolist()
        pending = self.pending_since
        stamps = [t_us if pending[i] is None else pending[i] for i in idx]
        xy = np.column_stack((fleet.x[due], fleet.y[due]))
        frontend = self.frontend
        admitted = frontend.stats.admitted
        answers = frontend.query_batch(
            xy,
            t_us,
            enqueue_t_us=stamps,
            span_refs=("recheck", due) if self.sp.enabled else None,
        )
        if self.recorder.enabled:
            record_requests(
                self.recorder, "recheck", t_us, idx, xy, answers,
                frontend.stats.admitted - admitted, self.router,
            )
        answered = answers >= 0
        done = due[answered]
        self.push_refreshes += int(self.pushed[done].sum())
        self.pushed[done] = False
        self.deferred += len(idx) - len(done)
        for i, since, ok in zip(idx, stamps, answered.tolist()):
            pending[i] = None if ok else since
        return done, answers[answered]

    def sample(self, fleet) -> dict[str, int]:
        agg = self.router.aggregate_stats()
        stats = self.frontend.stats
        return {
            "queries": agg.queries,
            "cache_hits": agg.cache_hits,
            "requests": stats.requests,
            "shed": stats.shed,
            "pushes": (
                0
                if self.registry is None
                else self.registry.stats.notifications
            ),
        }

    def publish(self, tel) -> None:
        self.frontend.publish_metrics(tel)
        tel.counter("storm_queries").inc(self.storm_queries)
        tel.counter("deferred_requeries").inc(self.deferred)
        tel.counter("push_refreshes").inc(self.push_refreshes)

    def finish(self, report: dict[str, Any]) -> None:
        router = self.router
        report.update(
            num_shards=router.num_shards,
            shard_grid=router.grid,
            offered_qps=self.offered_qps,
            push=self.push,
            rate_limit_qps=self.rate_limit_qps,
            shed_policy=self.policy,
            storm_queries=self.storm_queries,
            deferred_requeries=self.deferred,
            push_refreshes=self.push_refreshes,
            violation_us=report["violation_ticks"] * report["tick_us"],
            frontend=self.frontend.stats.as_dict(),
            push_stats=(
                None
                if self.registry is None
                else self.registry.stats.as_dict()
            ),
            db=router.stats_dict(),
            per_shard=router.per_shard_stats(),
        )


def _record_association_tick(
    recorder, fleet, tick, trig_x, trig_y, t_us: float, viol_open
) -> None:
    """Emit one tick's handoff and violation-window events.

    Stamped with the trigger cell, the exact position, and the sorted
    spans of the client's AP.
    """
    _connected, new_ap, best_col, handoff_mask, violating = tick
    x, y = fleet.x, fleet.y
    for i in np.flatnonzero(handoff_mask).tolist():
        recorder.emit(
            "handoff",
            t_us,
            subject=i,
            cell=(int(trig_x[i]), int(trig_y[i])),
            channels=tuple(sorted(fleet._live_spans[int(best_col[i])])),
            x=float(x[i]),
            y=float(y[i]),
            aux=int(new_ap[i]),
        )
    opens = np.flatnonzero(violating & ~viol_open)
    closes = np.flatnonzero(viol_open & ~violating)
    for i in opens.tolist():
        recorder.emit(
            "violation_open",
            t_us,
            subject=i,
            cell=(int(trig_x[i]), int(trig_y[i])),
            channels=tuple(sorted(fleet._live_spans[int(best_col[i])])),
            x=float(x[i]),
            y=float(y[i]),
        )
    for i in closes.tolist():
        recorder.emit(
            "violation_close",
            t_us,
            subject=i,
            cell=(int(trig_x[i]), int(trig_y[i])),
            x=float(x[i]),
            y=float(y[i]),
            aux=0,
        )
    viol_open[opens] = True
    viol_open[closes] = False


# detlint: ok[DET005] profiler times tick phases only; every published metric value is sim-clock data and reports are byte-identical with profiling on (tests/telemetry/test_determinism.py)
def run_session(
    path: DatabasePath | ClusterPath,
    engine: str,
    num_aps: int,
    num_clients: int,
    duration_us: float,
    seed: int,
    speed_mps: float,
    recheck_m: float,
    mic_events: int,
    tick_us: float,
    interference_radius_m: float,
    recorder: Any = None,
    telemetry: Any = None,
    profiler: Any = None,
    spans: Any = None,
) -> dict[str, Any]:
    """Run one validated session over *path*; returns the report.

    Set-up order is path (frontend), APs, then the fleet; mic events,
    the AP snapshot and the storm source follow.  The seed streams are
    labelled with ``path.stream``, so roaming and querystorm sessions
    of one seed draw independent worlds.
    """
    recorder = NULL_RECORDER if recorder is None else recorder
    tel = NULL_TELEMETRY if telemetry is None else telemetry
    sp = NULL_SPANS if spans is None else spans
    prof = NULL_PROFILER if profiler is None else profiler
    recording = recorder.enabled
    service = path.open(recorder, tel, sp)
    metro = service.metro
    extent_m = metro.extent_m
    with prof.phase("boot"):
        aps = boot_aps(
            service, num_aps, seed, f"{path.stream}-aps", interference_radius_m
        )
    with prof.phase("spawn"):
        fleet = (ScalarFleet if engine == "scalar" else VectorFleet)(
            spawn_clients(
                num_clients, seed, f"{path.stream}-client", extent_m
            ),
            extent_m,
            service.responses,
        )
    events = generate_mic_events(
        mic_events,
        duration_us,
        extent_m,
        metro.num_channels,
        stream_seed(seed, f"{path.stream}-mics"),
    )
    displacement = [0, 0, 0, 0]

    def register(index: int) -> None:
        # Cached responses inside the zone are invalidated (and, under
        # push, subscribed clients notified), then covered APs walk
        # their backup channels, exactly as in the citywide driver.
        event = events[index]
        registration = event.registration()
        notified = path.register_mic(event, index, registration)
        if recording:
            record_mic(
                recorder, event, index, service.cache_resolution_m, notified
            )
        counts = displace_covered_aps(
            service, aps, event, registration, interference_radius_m
        )
        for j, count in enumerate(counts):
            displacement[j] += count

    fleet.set_snapshot(snapshot_assigned_aps(aps)[0], num_aps)
    step_m = speed_mps * tick_us / 1e6
    ticks = int(duration_us // tick_us)
    path.start(fleet.n, ticks, tick_us, seed)
    viol_open = np.zeros(fleet.n, dtype=bool)
    next_event = 0
    for k in range(ticks + 1):
        t_us = k * tick_us
        fired = next_event
        while next_event < len(events) and events[next_event].t_us <= t_us:
            register(next_event)
            next_event += 1
        if next_event > fired:
            fleet.set_snapshot(snapshot_assigned_aps(aps)[0], num_aps)

        path.storm(t_us, prof)
        if k > 0:
            with prof.phase("advance"):
                fleet.advance(step_m)
        path.subscribe(fleet)

        # The re-check rule: query only on crossing a quantization
        # square or a TTL edge (or on a push) — never merely because
        # time passed within a valid response.
        with prof.phase("recheck-detect"):
            trig_x, trig_y = fleet.cells(recheck_m)
            bucket = ttl_bucket(t_us, service.ttl_us)
            due = fleet.recheck_due(trig_x, trig_y, bucket)
            if path.pushed is not None and path.pushed.any():
                # Notified clients refresh now, not at their next trigger.
                forced = path.pushed.copy()
                forced[due] = True
                due = np.flatnonzero(forced)
        if due.size:
            with prof.phase("batch-lookup"):
                done, ids = path.recheck(fleet, due, trig_x, trig_y, t_us)
                fleet.commit_recheck(done, trig_x, trig_y, bucket, ids)

        tick = fleet.associate_and_score(metro, t_us, profiler=prof)
        if recording:
            _record_association_tick(
                recorder, fleet, tick, trig_x, trig_y, t_us, viol_open
            )
        if tel.enabled:
            tel.sample_tick(
                t_us,
                **path.sample(fleet),
                handoffs=int(fleet.handoffs.sum()),
                violating=int(tick[4].sum()),
            )

    if recording:
        # Still-open violation windows close at the end of the run,
        # marked aux=1 so analyses can tell truncation from recovery.
        trig_x, trig_y = fleet.cells(recheck_m)
        for i in np.flatnonzero(viol_open).tolist():
            recorder.emit(
                "violation_close",
                ticks * tick_us,
                subject=i,
                cell=(int(trig_x[i]), int(trig_y[i])),
                x=float(fleet.x[i]),
                y=float(fleet.y[i]),
                aux=1,
            )
    # When duration_us is not a tick multiple, events can start after
    # the last evaluated tick; register them anyway so the database,
    # the displacement accounting, and the reported event count agree
    # with simulate_citywide's process-every-event semantics.
    while next_event < len(events):
        register(next_event)
        next_event += 1

    requeries = fleet.requeries.tolist()
    handoffs = fleet.handoffs.tolist()
    vacations = fleet.vacations.tolist()
    connected = fleet.connected.tolist()
    connected_ticks = sum(connected)
    violation_ticks = int(fleet.violations.sum())
    client_ticks = fleet.n * (ticks + 1)
    if tel.enabled:
        path.publish(tel)
        tel.counter("requeries").inc(sum(requeries))
        tel.counter("handoffs").inc(sum(handoffs))
        tel.counter("vacations").inc(sum(vacations))
        tel.counter("violation_ticks").inc(violation_ticks)
        tel.counter("connected_ticks").inc(connected_ticks)
        tel.counter("disconnected_ticks").inc(fleet.disconnected_ticks)
    qx, qy = fleet.cells(recheck_m)
    report = {
        "num_aps": num_aps,
        "num_clients": num_clients,
        "duration_us": duration_us,
        "tick_us": tick_us,
        "speed_mps": speed_mps,
        "recheck_m": recheck_m,
        "extent_m": extent_m,
        "assigned_aps": sum(1 for ap in aps if ap.channel is not None),
        "requeries": sum(requeries),
        "handoffs": sum(handoffs),
        "vacations": sum(vacations),
        "connected_ticks": connected_ticks,
        "disconnected_ticks": fleet.disconnected_ticks,
        "connected_fraction": (
            connected_ticks / client_ticks if client_ticks else 0.0
        ),
        "violation_ticks": violation_ticks,
        "violation_free_fraction": (
            1.0 - violation_ticks / connected_ticks if connected_ticks else 1.0
        ),
        "mic_events": len(events),
        "displaced_aps": displacement[0],
        "backup_recoveries": displacement[1],
        "full_reassignments": displacement[2],
        "outages": displacement[3],
        "per_client": tuple(
            (i, requeries[i], handoffs[i], vacations[i], connected[i])
            for i in range(fleet.n)
        ),
        "final_cells": tuple(zip(qx.tolist(), qy.tolist())),
    }
    path.finish(report)
    if tel.enabled:
        report["telemetry"] = tel.snapshot()
    if sp.enabled:
        report["spans"] = sp.snapshot()
    return report
