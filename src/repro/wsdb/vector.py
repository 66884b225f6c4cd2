"""The columnar mobile-client engine: million-client fleets on numpy.

The scalar drivers (:func:`~repro.wsdb.mobility.simulate_roaming`,
:func:`~repro.wsdb.cluster.querystorm.simulate_querystorm`) walk a
Python object per client per tick — perfectly clear, and capped around
10^3 clients.  This module holds the whole fleet in columns instead
(positions, waypoints, cached-response ids, trigger cells, TTL buckets,
assigned APs, per-client counters — one numpy array each) and batches
the per-tick hot path as array ops:

* **Waypoint advance** — the common case (the tick ends before the
  current leg does) is one fused array expression; the rare
  waypoint-crossing walkers fall back to the scalar
  :func:`~repro.wsdb.mobility.advance_position` with their own
  per-client RNGs, so waypoint draws replay the exact scalar streams.
* **Re-check detection** — 100 m square crossings and TTL expiry via
  integer cell arithmetic (``floor(x / recheck_m)`` per axis), one
  compare per trigger.
* **Grouped DB lookups** — the tick's re-checkers submit their cells in
  client order through
  :meth:`~repro.wsdb.service.WhiteSpaceDatabase.channels_in_cells`; the
  (cell, TTL-bucket) response cache is the memoization, so N clients in
  one cell cost one computed response, and the database sees the exact
  query sequence the scalar loop would send (cache stats match to the
  eviction).
* **Response interning** — distinct response tuples intern to small
  ids; eligibility (``ap_spans <= response``) is a (responses x APs)
  bool table rebuilt only when the AP snapshot changes, and a tick's
  per-client eligibility is one fancy-index into it.
* **Association** — nearest eligible AP by a masked running minimum
  over the live-AP columns in ascending ``ap_id`` order: per column,
  in-place ufuncs write the squared distance into preallocated
  length-m buffers, and ``np.copyto(..., where=better)`` adopts it
  where it is strictly ``<`` the best so far *and* the column's row of
  the transposed eligibility table permits the AP — exactly the scalar
  ``min`` under the squared-distance + ``ap_id`` key, with no
  (clients x APs) matrix.  Mic-zone vacation reads the same table at
  the previous tick's AP column, as one mask.
* **Compliance** — per active incumbent, a squared-form coverage mask
  (:func:`~repro.wsdb.model.point_in_circle`'s algebra, elementwise)
  ANDed with "the client's AP spans this incumbent's channel".

**The bit-identity contract.**  Every float the hot path produces goes
through +, -, *, /, sqrt, and floor only — all correctly-rounded
IEEE-754 operations — in the same operand order as the scalar engine,
so positions, distances, and cell ids are bit-identical, not merely
close.  Everything order-sensitive on the service side (LRU cache,
token-bucket admission, push subscribe/notify) is driven in the scalar
engine's exact call order.  The reports returned here compare equal
(``==``) to the scalar engine's, field for field, including the nested
db/frontend/push stats — the property ``tests/wsdb/test_vector.py``
sweeps seeds x fleet sizes x speeds to pin.
"""

from __future__ import annotations

import random
from typing import Any

import numpy as np

from repro.sim.rng import stream_seed
from repro.telemetry.metrics import NULL_TELEMETRY
from repro.telemetry.profiler import NULL_PROFILER
from repro.telemetry.spans import NULL_SPANS, lookup_steps
from repro.wsdb.citywide import (
    DEFAULT_INTERFERENCE_RADIUS_M,
    boot_aps,
    displace_covered_aps,
    generate_mic_events,
    snapshot_assigned_aps,
)
from repro.wsdb.mobility import (
    DEFAULT_SPEED_MPS,
    DEFAULT_TICK_US,
    RoamingClient,
    advance_position,
    spawn_clients,
)
from repro.traces.record import NULL_RECORDER
from repro.wsdb.service import WhiteSpaceDatabase, quantize_cell, ttl_bucket

__all__ = [
    "VectorFleet",
    "simulate_querystorm_vector",
    "simulate_roaming_vector",
]

#: Sentinel for "no cell observed yet" in the trigger-cell columns;
#: far outside any reachable quantization cell, so the first tick's
#: comparison always fires (the scalar engine's ``last_cell = None``).
_NO_CELL = np.iinfo(np.int64).min


class VectorFleet:
    """Columnar state for a fleet of waypoint-walking mobile clients.

    Built from the same :func:`~repro.wsdb.mobility.spawn_clients`
    output the scalar engine iterates, so initial positions, waypoints,
    and the per-client RNG objects (kept for waypoint-crossing draws)
    are shared by construction.
    """

    def __init__(self, clients: list[RoamingClient], extent_m: float):
        self.n = len(clients)
        self.extent_m = extent_m
        self.x = np.array([c.x_m for c in clients], dtype=np.float64)
        self.y = np.array([c.y_m for c in clients], dtype=np.float64)
        self.wx = np.array([c.waypoint[0] for c in clients], dtype=np.float64)
        self.wy = np.array([c.waypoint[1] for c in clients], dtype=np.float64)
        self.rngs = [c.rng for c in clients]
        # Cached-response ids into the intern table; id 0 is the
        # "never queried" empty response every client starts with.
        self.resp_id = np.zeros(self.n, dtype=np.int64)
        self.last_tx = np.full(self.n, _NO_CELL, dtype=np.int64)
        self.last_ty = np.full(self.n, _NO_CELL, dtype=np.int64)
        self.last_bucket = np.full(self.n, -1, dtype=np.int64)
        self.prev_ap = np.full(self.n, -1, dtype=np.int64)
        self.requeries = np.zeros(self.n, dtype=np.int64)
        self.handoffs = np.zeros(self.n, dtype=np.int64)
        self.vacations = np.zeros(self.n, dtype=np.int64)
        self.connected = np.zeros(self.n, dtype=np.int64)
        self.violations = np.zeros(self.n, dtype=np.int64)
        self.disconnected_ticks = 0
        # Response interning: distinct response tuples -> small ids.
        self._responses: list[frozenset[int]] = [frozenset()]
        self._resp_ids: dict[tuple[int, ...], int] = {(): 0}
        # Snapshot-dependent state (set_snapshot).
        self._live_ids = np.zeros(0, dtype=np.int64)
        self._ap_x = np.zeros(0, dtype=np.float64)
        self._ap_y = np.zeros(0, dtype=np.float64)
        self._live_spans: list[frozenset[int]] = []
        self._col_of: np.ndarray = np.full(1, -1, dtype=np.int64)
        self._elig = np.zeros((1, 0), dtype=bool)
        self._uhf_cols: dict[int, np.ndarray] = {}

    # -- AP snapshot ---------------------------------------------------------

    def set_snapshot(
        self,
        live_aps: list[tuple[Any, frozenset[int]]],
        num_aps: int,
    ) -> None:
        """Columnarize one ``snapshot_assigned_aps`` live list.

        Rebuilds the eligibility table for every interned response and
        drops the per-channel span masks (both are pure functions of
        the snapshot + intern table).
        """
        self._live_ids = np.array(
            [ap.ap_id for ap, _ in live_aps], dtype=np.int64
        )
        self._ap_x = np.array([ap.x_m for ap, _ in live_aps], dtype=np.float64)
        self._ap_y = np.array([ap.y_m for ap, _ in live_aps], dtype=np.float64)
        self._live_spans = [spans for _, spans in live_aps]
        self._col_of = np.full(max(1, num_aps), -1, dtype=np.int64)
        for col, (ap, _) in enumerate(live_aps):
            self._col_of[ap.ap_id] = col
        self._elig = self._elig_rows(self._responses)
        self._uhf_cols = {}

    def _elig_rows(self, responses: list[frozenset[int]]) -> np.ndarray:
        rows = [
            [spans <= resp for spans in self._live_spans]
            for resp in responses
        ]
        return np.array(rows, dtype=bool).reshape(
            len(responses), len(self._live_spans)
        )

    def intern(self, response: tuple[int, ...]) -> int:
        """The id of *response*, creating one (plus its eligibility row)."""
        rid = self._resp_ids.get(response)
        if rid is None:
            rid = len(self._responses)
            resp_set = frozenset(response)
            self._responses.append(resp_set)
            self._resp_ids[response] = rid
            self._elig = np.concatenate(
                [self._elig, self._elig_rows([resp_set])]
            )
        return rid

    def _spans_cols(self, uhf_index: int) -> np.ndarray:
        """Bool per live-AP column: does its channel span *uhf_index*?"""
        mask = self._uhf_cols.get(uhf_index)
        if mask is None:
            mask = np.array(
                [uhf_index in spans for spans in self._live_spans],
                dtype=bool,
            )
            self._uhf_cols[uhf_index] = mask
        return mask

    # -- per-tick batched stages ---------------------------------------------

    def advance(self, step_m: float) -> None:
        """Advance every walker by *step_m* along its waypoint path.

        The non-crossing fast path is the scalar loop's else-branch
        arithmetic (``pos += delta / leg * step``) elementwise; walkers
        whose leg ends within the tick replay the exact scalar
        :func:`advance_position` (their RNG draws must consume the same
        stream values the scalar engine would).
        """
        x, y, wx, wy = self.x, self.y, self.wx, self.wy
        dx = wx - x
        dy = wy - y
        leg = np.sqrt(dx * dx + dy * dy)
        crossing = leg <= step_m
        cross_idx = np.flatnonzero(crossing)
        if cross_idx.size:
            far = ~crossing
            x[far] += dx[far] / leg[far] * step_m
            y[far] += dy[far] / leg[far] * step_m
            extent = self.extent_m
            for i in cross_idx.tolist():
                xi, yi, wxi, wyi = advance_position(
                    float(x[i]),
                    float(y[i]),
                    float(wx[i]),
                    float(wy[i]),
                    self.rngs[i],
                    step_m,
                    extent,
                )
                x[i] = xi
                y[i] = yi
                wx[i] = wxi
                wy[i] = wyi
        else:
            x += dx / leg * step_m
            y += dy / leg * step_m

    def cells(self, resolution_m: float) -> tuple[np.ndarray, np.ndarray]:
        """Quantization cells of every client at *resolution_m*.

        ``floor(x / res)`` per axis — float division and floor are
        correctly rounded, and the result is integral, so the int64
        cast equals the scalar ``quantize_cell`` exactly.
        """
        qx = np.floor(self.x / resolution_m).astype(np.int64)
        qy = np.floor(self.y / resolution_m).astype(np.int64)
        return qx, qy

    def recheck_due(
        self, trig_x: np.ndarray, trig_y: np.ndarray, bucket: int
    ) -> np.ndarray:
        """Client indices due a re-check (crossed a square or TTL edge)."""
        need = (
            (trig_x != self.last_tx)
            | (trig_y != self.last_ty)
            | (self.last_bucket != bucket)
        )
        return np.flatnonzero(need)

    def commit_recheck(
        self,
        idx: np.ndarray,
        trig_x: np.ndarray,
        trig_y: np.ndarray,
        bucket: int,
        responses: list[tuple[int, ...]],
    ) -> None:
        """Adopt fresh responses for the re-checked clients *idx*."""
        rid = self.resp_id
        for j, i in enumerate(idx.tolist()):
            rid[i] = self.intern(responses[j])
        self.last_tx[idx] = trig_x[idx]
        self.last_ty[idx] = trig_y[idx]
        self.last_bucket[idx] = bucket
        self.requeries[idx] += 1

    def associate_and_score(
        self, metro, t_us: float, profiler: Any = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One tick of vacation, association, handoff, and compliance.

        Mirrors the scalar loop's per-client sequence exactly: vacate
        when the previous AP's spans are no longer permitted, associate
        with the nearest eligible AP (running min over ascending
        ``ap_id`` columns with strict ``<`` — the scalar tie-break),
        count handoffs/connected ticks, then score ground truth.

        Returns the tick's outcome arrays ``(connected, new_ap,
        best_col, handoff_mask, violating)`` — cheap references the
        trace-recording hooks read; counters are already applied.

        An optional wall-clock ``profiler`` splits the stage into its
        two phases ("associate", "compliance") — pure observation, the
        arrays are untouched.
        """
        prof = NULL_PROFILER if profiler is None else profiler
        with prof.phase("associate"):
            n_live = len(self._live_spans)
            m = self.n
            # Per-client eligibility, transposed and contiguous: row
            # ``col`` says which clients may associate with that AP.
            elig_t = np.take(self._elig.T, self.resp_id, axis=1)
            prev = self.prev_ap

            # Vacation: the previous AP (still assigned this snapshot)
            # whose spans the current response denies.
            prev_col = self._col_of[np.clip(prev, 0, None)]
            prev_col = np.where(prev >= 0, prev_col, -1)
            has_prev = prev_col >= 0
            prev_ok = np.zeros(m, dtype=bool)
            pi = np.flatnonzero(has_prev)
            if pi.size:
                prev_ok[pi] = elig_t[prev_col[pi], pi]
            self.vacations[has_prev & ~prev_ok] += 1

            # Association: running elementwise min over live-AP columns,
            # in place into preallocated length-m buffers; a client whose
            # response denies the column's AP is masked out of the update.
            x, y = self.x, self.y
            best = np.full(m, np.inf)
            best_col = np.full(m, -1, dtype=np.int64)
            d2 = np.empty(m)
            ddy = np.empty(m)
            better = np.empty(m, dtype=bool)
            for col in range(n_live):
                np.subtract(self._ap_x[col], x, out=d2)
                np.multiply(d2, d2, out=d2)
                np.subtract(self._ap_y[col], y, out=ddy)
                np.multiply(ddy, ddy, out=ddy)
                np.add(d2, ddy, out=d2)
                np.less(d2, best, out=better)
                better &= elig_t[col]
                np.copyto(best, d2, where=better)
                np.copyto(best_col, col, where=better)
            connected = best_col >= 0
            if n_live:
                new_ap = np.where(
                    connected, self._live_ids[np.clip(best_col, 0, None)], -1
                )
            else:
                new_ap = np.full(m, -1, dtype=np.int64)
            self.disconnected_ticks += int(np.count_nonzero(~connected))
            handoff_mask = (prev >= 0) & connected & (new_ap != prev)
            self.handoffs[handoff_mask] += 1
            self.connected[connected] += 1
            self.prev_ap = new_ap

        with prof.phase("compliance"):
            # Compliance: per active incumbent, a coverage mask ANDed
            # with "this client's AP spans the incumbent's channel".
            violating = np.zeros(m, dtype=bool)
            ap_col = np.clip(best_col, 0, None)
            for entry in (*metro.sites, *metro.registrations):
                if not entry.active_at(t_us):
                    continue
                span_cols = self._spans_cols(entry.uhf_index)
                if not span_cols.any():
                    continue
                cand = np.flatnonzero(connected & span_cols[ap_col])
                if not cand.size:
                    continue
                cdx = self.x[cand] - entry.x_m
                cdy = self.y[cand] - entry.y_m
                radius = entry.radius_m
                covered = cdx * cdx + cdy * cdy <= radius * radius
                violating[cand[covered]] = True
            self.violations[violating] += 1
        return connected, new_ap, best_col, handoff_mask, violating


def _record_mic_event(recorder, event, index: int, resolution_m: float):
    """The mic emission shared with the scalar drivers (same stamps)."""
    mic_cell = quantize_cell(event.x_m, event.y_m, resolution_m)
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
    return mic_cell


def _record_association_tick(
    recorder,
    fleet: VectorFleet,
    tick,
    trig_x: np.ndarray,
    trig_y: np.ndarray,
    t_us: float,
    viol_open: np.ndarray,
) -> None:
    """Emit handoff and violation-window events for one fleet tick.

    The stamps (trigger cell, exact position, sorted AP spans) match
    the scalar loop's emissions value-for-value, so both engines'
    sorted streams are identical.
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


def _record_end_closes(
    recorder,
    fleet: VectorFleet,
    viol_open: np.ndarray,
    end_us: float,
    recheck_m: float,
) -> None:
    """Close still-open violation windows at end of run (aux=1)."""
    trig_x, trig_y = fleet.cells(recheck_m)
    for i in np.flatnonzero(viol_open).tolist():
        recorder.emit(
            "violation_close",
            end_us,
            subject=i,
            cell=(int(trig_x[i]), int(trig_y[i])),
            x=float(fleet.x[i]),
            y=float(fleet.y[i]),
            aux=1,
        )


def _fleet_report(
    fleet: VectorFleet, ticks: int, recheck_m: float
) -> dict[str, Any]:
    """The per-client accounting block shared by both vector drivers."""
    requeries = fleet.requeries.tolist()
    handoffs = fleet.handoffs.tolist()
    vacations = fleet.vacations.tolist()
    connected = fleet.connected.tolist()
    connected_ticks = sum(connected)
    violation_ticks = int(fleet.violations.sum())
    client_ticks = fleet.n * (ticks + 1)
    qx, qy = fleet.cells(recheck_m)
    return {
        "requeries": sum(requeries),
        "handoffs": sum(handoffs),
        "vacations": sum(vacations),
        "connected_ticks": connected_ticks,
        "disconnected_ticks": fleet.disconnected_ticks,
        "violation_ticks": violation_ticks,
        "client_ticks": client_ticks,
        "per_client": tuple(
            (i, requeries[i], handoffs[i], vacations[i], connected[i])
            for i in range(fleet.n)
        ),
        "final_cells": tuple(zip(qx.tolist(), qy.tolist())),
    }


# detlint: ok[DET005] profiler times tick phases only; every published metric value is sim-clock data and reports are byte-identical with profiling on (tests/telemetry/test_determinism.py)
def simulate_roaming_vector(
    db: WhiteSpaceDatabase,
    num_aps: int,
    num_clients: int,
    duration_us: float,
    seed: int,
    speed_mps: float = DEFAULT_SPEED_MPS,
    recheck_m: float | None = None,
    mic_events: int = 0,
    tick_us: float = DEFAULT_TICK_US,
    interference_radius_m: float = DEFAULT_INTERFERENCE_RADIUS_M,
    recorder: Any = None,
    telemetry: Any = None,
    profiler: Any = None,
    spans: Any = None,
) -> dict[str, Any]:
    """The columnar twin of :func:`~repro.wsdb.mobility.simulate_roaming`.

    Same world construction (shared ``boot_aps`` / ``spawn_clients`` /
    ``generate_mic_events`` off the same labelled streams), same tick
    semantics, bit-identical report — and, given a ``recorder``, the
    identical trace event stream (the scalar loop interleaves its hooks
    per client, this engine per stage; canonical trace ordering makes
    the sorted streams equal).  Reached via
    ``simulate_roaming(..., engine="vector")``; calling it directly
    skips nothing but the argument validation.

    ``telemetry`` (sim-clock, deterministic, snapshot-identical to the
    scalar engine's) and ``profiler`` (wall-clock phase breakdown of
    the batched tick stages: advance / recheck-detect / batch-lookup /
    associate / compliance) both observe only — the report is
    unchanged except for the ``"telemetry"`` snapshot key.  ``spans``
    records the identical span set the scalar engine emits (the batch
    lookup's per-cell outcomes are replayed per client in client
    order).
    """
    if recheck_m is None:
        recheck_m = db.cache_resolution_m
    if recorder is None:
        recorder = NULL_RECORDER
    recording = recorder.enabled
    tel = NULL_TELEMETRY if telemetry is None else telemetry
    tel_on = tel.enabled
    sp = NULL_SPANS if spans is None else spans
    sp_on = sp.enabled
    prof = NULL_PROFILER if profiler is None else profiler
    extent_m = db.metro.extent_m
    aps = boot_aps(db, num_aps, seed, "roaming-aps", interference_radius_m)
    fleet = VectorFleet(
        spawn_clients(num_clients, seed, "roaming-client", extent_m), extent_m
    )

    events = generate_mic_events(
        mic_events,
        duration_us,
        extent_m,
        db.metro.num_channels,
        stream_seed(seed, "roaming-mics"),
    )
    next_event = 0
    displaced = backup_recoveries = full_reassignments = outages = 0

    def register_event(event, index: int) -> None:
        nonlocal displaced, backup_recoveries, full_reassignments, outages
        registration = event.registration()
        invalidated = db.register_mic(registration)
        if sp_on:
            sp.record_tree(
                "mic_register",
                "mic",
                index,
                event.t_us,
                "db",
                [("invalidate", "db", {"entries": int(invalidated)}, ())],
            )
        if recording:
            _record_mic_event(recorder, event, index, db.cache_resolution_m)
        d, b, r, o = displace_covered_aps(
            db, aps, event, registration, interference_radius_m
        )
        displaced += d
        backup_recoveries += b
        full_reassignments += r
        outages += o

    live_aps, _ = snapshot_assigned_aps(aps)
    fleet.set_snapshot(live_aps, num_aps)

    aligned = recheck_m == db.cache_resolution_m
    step_m = speed_mps * tick_us / 1e6
    ticks = int(duration_us // tick_us)
    viol_open = np.zeros(fleet.n, dtype=bool)
    for k in range(ticks + 1):
        t_us = k * tick_us
        fired = False
        while next_event < len(events) and events[next_event].t_us <= t_us:
            register_event(events[next_event], next_event)
            next_event += 1
            fired = True
        if fired:
            live_aps, _ = snapshot_assigned_aps(aps)
            fleet.set_snapshot(live_aps, num_aps)

        if k > 0:
            with prof.phase("advance"):
                fleet.advance(step_m)

        # The re-check rule, batched: due clients submit their *query*
        # cells (the database's own resolution, which the trigger
        # granularity need not match) in client order — the exact
        # sequence the scalar per-client loop sends.
        with prof.phase("recheck-detect"):
            trig_x, trig_y = fleet.cells(recheck_m)
            bucket = ttl_bucket(t_us, db.ttl_us)
            idx = fleet.recheck_due(trig_x, trig_y, bucket)
        if idx.size:
            with prof.phase("batch-lookup"):
                if aligned:
                    qx, qy = trig_x, trig_y
                else:
                    qx, qy = fleet.cells(db.cache_resolution_m)
                cells = list(zip(qx[idx].tolist(), qy[idx].tolist()))
                responses = db.channels_in_cells(cells, t_us)
                fleet.commit_recheck(idx, trig_x, trig_y, bucket, responses)
            if sp_on:
                # Replay the batch's per-cell outcomes per client in
                # client order — the scalar loop's exact span sequence.
                outs = db.last_outcomes
                for j, i in enumerate(idx.tolist()):
                    hit, scanned = outs[j]
                    sp.record_tree(
                        "request",
                        "roam",
                        i,
                        t_us,
                        "db",
                        [lookup_steps(hit, scanned, "db")],
                    )
            if recording:
                for j, i in enumerate(idx.tolist()):
                    recorder.emit(
                        "recheck",
                        t_us,
                        subject=i,
                        cell=cells[j],
                        channels=responses[j],
                        x=float(fleet.x[i]),
                        y=float(fleet.y[i]),
                        aux=1,
                    )

        tick = fleet.associate_and_score(db.metro, t_us, profiler=prof)
        if recording:
            _record_association_tick(
                recorder, fleet, tick, trig_x, trig_y, t_us, viol_open
            )

        if tel_on:
            tel.sample_tick(
                t_us,
                queries=db.stats.queries,
                cache_hits=db.stats.cache_hits,
                requeries=int(fleet.requeries.sum()),
                handoffs=int(fleet.handoffs.sum()),
                violating=int(tick[4].sum()),
            )

    if recording:
        _record_end_closes(
            recorder, fleet, viol_open, ticks * tick_us, recheck_m
        )

    while next_event < len(events):
        register_event(events[next_event], next_event)
        next_event += 1

    tallies = _fleet_report(fleet, ticks, recheck_m)
    connected_ticks = tallies["connected_ticks"]
    violation_ticks = tallies["violation_ticks"]
    if tel_on:
        db.publish_metrics(tel)
        tel.counter("requeries").inc(tallies["requeries"])
        tel.counter("handoffs").inc(tallies["handoffs"])
        tel.counter("vacations").inc(tallies["vacations"])
        tel.counter("violation_ticks").inc(violation_ticks)
        tel.counter("connected_ticks").inc(connected_ticks)
        tel.counter("disconnected_ticks").inc(tallies["disconnected_ticks"])
    report = {
        "num_aps": num_aps,
        "num_clients": num_clients,
        "duration_us": duration_us,
        "tick_us": tick_us,
        "speed_mps": speed_mps,
        "recheck_m": recheck_m,
        "extent_m": extent_m,
        "assigned_aps": sum(1 for ap in aps if ap.channel is not None),
        "requeries": tallies["requeries"],
        "requeries_per_client": tallies["requeries"] / num_clients,
        "handoffs": tallies["handoffs"],
        "vacations": tallies["vacations"],
        "connected_ticks": connected_ticks,
        "disconnected_ticks": tallies["disconnected_ticks"],
        "connected_fraction": connected_ticks / tallies["client_ticks"],
        "violation_ticks": violation_ticks,
        "violation_free_fraction": (
            1.0 - violation_ticks / connected_ticks if connected_ticks else 1.0
        ),
        "mic_events": len(events),
        "displaced_aps": displaced,
        "backup_recoveries": backup_recoveries,
        "full_reassignments": full_reassignments,
        "outages": outages,
        "per_client": tallies["per_client"],
        "final_cells": tallies["final_cells"],
        "db": db.stats.as_dict(),
    }
    if tel_on:
        report["telemetry"] = tel.snapshot()
    if sp_on:
        report["spans"] = sp.snapshot()
    return report


# detlint: ok[DET005] profiler times tick phases only; every published metric value is sim-clock data and reports are byte-identical with profiling on (tests/telemetry/test_determinism.py)
def simulate_querystorm_vector(
    router,
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
    policy: str = "reject",
    interference_radius_m: float = DEFAULT_INTERFERENCE_RADIUS_M,
    storm_source: Any = None,
    recorder: Any = None,
    telemetry: Any = None,
    profiler: Any = None,
    spans: Any = None,
) -> dict[str, Any]:
    """The columnar twin of the cluster's ``simulate_querystorm``.

    Movement, re-check detection, association, and compliance are the
    batched fleet stages; everything whose *order* the cluster tier can
    observe stays sequential in the scalar engine's exact order — the
    storm burst, per-re-checker ``frontend.query`` calls (token-bucket
    admission is order-sensitive), and push-registry subscriptions
    (movers only: a same-cell re-subscribe is a stats-free no-op, so
    skipping it is unobservable).  Reached via
    ``simulate_querystorm(..., engine="vector")``.

    ``storm_source`` and ``recorder`` behave exactly as on the scalar
    driver: an explicit ``(t_us, x, y)`` workload replaces the
    synthetic generator, and a recorder captures the identical event
    stream the scalar engine would emit.  ``telemetry`` and
    ``profiler`` behave as on the vector roaming driver: deterministic
    sim-clock metrics (snapshot-identical to the scalar engine's) and
    a wall-clock phase breakdown, both observation-only.  ``spans``
    records the identical span set the scalar engine emits (burst and
    re-check submission order are already sequential here).
    """
    from repro.wsdb.cluster.frontend import BatchFrontend
    from repro.wsdb.cluster.push import PushRegistry
    from repro.wsdb.cluster.querystorm import StormFeed, synthetic_storm

    if recheck_m is None:
        recheck_m = router.cache_resolution_m
    if recorder is None:
        recorder = NULL_RECORDER
    recording = recorder.enabled
    tel = NULL_TELEMETRY if telemetry is None else telemetry
    tel_on = tel.enabled
    sp = NULL_SPANS if spans is None else spans
    sp_on = sp.enabled
    prof = NULL_PROFILER if profiler is None else profiler

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
    fleet = VectorFleet(
        spawn_clients(num_clients, seed, "querystorm-client", extent_m),
        extent_m,
    )

    events = generate_mic_events(
        mic_events,
        duration_us,
        extent_m,
        router.metro.num_channels,
        stream_seed(seed, "querystorm-mics"),
    )
    next_event = 0
    displaced = backup_recoveries = full_reassignments = outages = 0
    deferred_requeries = 0
    push_refreshes = 0
    storm_queries = 0

    def register_event(event, index: int) -> tuple[int, ...]:
        nonlocal displaced, backup_recoveries, full_reassignments, outages
        registration = event.registration()
        notified = frontend.register_mic(
            registration,
            span_ref=(index, event.t_us) if sp_on else None,
        )
        if recording:
            mic_cell = _record_mic_event(
                recorder, event, index, router.cache_resolution_m
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

    live_aps, _ = snapshot_assigned_aps(aps)
    fleet.set_snapshot(live_aps, num_aps)

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
    storm_seq = 0
    viol_open = np.zeros(fleet.n, dtype=bool)
    # First-attempt timestamps for deferred re-checks: latency is
    # measured from the tick a client first needed a refresh, exactly
    # as in the scalar driver.
    pending_since: list[float | None] = [None] * fleet.n
    # Undelivered push notifications (cleared only once the refresh
    # query is admitted) and the registry-subscription shadow cells
    # (movers-only subscribe needs to know who moved).
    pushed = np.zeros(fleet.n, dtype=bool)
    sub_x = np.full(fleet.n, _NO_CELL, dtype=np.int64)
    sub_y = np.full(fleet.n, _NO_CELL, dtype=np.int64)
    for k in range(ticks + 1):
        t_us = k * tick_us
        fired = False
        while next_event < len(events) and events[next_event].t_us <= t_us:
            notified = register_event(events[next_event], next_event)
            if notified:
                pushed[list(notified)] = True
            next_event += 1
            fired = True
        if fired:
            live_aps, _ = snapshot_assigned_aps(aps)
            fleet.set_snapshot(live_aps, num_aps)

        # The storm burst goes first, exactly as in the scalar driver:
        # background load contends for admission tokens ahead of the
        # clients' re-checks.
        points = feed.burst(t_us)
        if points:
            span_refs = (
                [("storm", storm_queries + j) for j in range(len(points))]
                if sp_on
                else None
            )
            storm_queries += len(points)
            responses = frontend.query_batch(
                points,
                t_us,
                enqueue_t_us=feed.last_times,
                span_refs=span_refs,
            )
            if recording:
                for (x_m, y_m), response, (qcell, admitted) in zip(
                    points, responses, frontend.last_plan
                ):
                    recorder.emit(
                        "query",
                        t_us,
                        subject=storm_seq,
                        cell=qcell,
                        channels=response,
                        x=x_m,
                        y=y_m,
                        aux=int(admitted),
                    )
                    storm_seq += 1

        if k > 0:
            with prof.phase("advance"):
                fleet.advance(step_m)

        if registry is not None:
            rcx, rcy = fleet.cells(router.cache_resolution_m)
            moved = np.flatnonzero((rcx != sub_x) | (rcy != sub_y))
            for i in moved.tolist():
                registry.subscribe(i, int(rcx[i]), int(rcy[i]))
            sub_x[moved] = rcx[moved]
            sub_y[moved] = rcy[moved]

        with prof.phase("recheck-detect"):
            trig_x, trig_y = fleet.cells(recheck_m)
            bucket = ttl_bucket(t_us, router.ttl_us)
            need = (
                (trig_x != fleet.last_tx)
                | (trig_y != fleet.last_ty)
                | (fleet.last_bucket != bucket)
                | pushed
            )
        # Admission is order-sensitive, so re-checkers query one at a
        # time in client order — the exact request sequence (and
        # FrontendStats accounting) of the scalar loop.
        x, y = fleet.x, fleet.y
        with prof.phase("batch-lookup"):
            for i in np.flatnonzero(need).tolist():
                since = pending_since[i]
                response = frontend.query(
                    float(x[i]),
                    float(y[i]),
                    t_us,
                    enqueue_t_us=t_us if since is None else since,
                    span_ref=("recheck", i) if sp_on else None,
                )
                if recording:
                    qcell, admitted = frontend.last_plan[0]
                    recorder.emit(
                        "recheck",
                        t_us,
                        subject=i,
                        cell=qcell,
                        channels=response,
                        x=float(x[i]),
                        y=float(y[i]),
                        aux=int(admitted),
                    )
                if response is None:
                    # Shed without a stale fallback: keep the old
                    # response and retry next tick.
                    deferred_requeries += 1
                    if since is None:
                        pending_since[i] = t_us
                else:
                    pending_since[i] = None
                    fleet.resp_id[i] = fleet.intern(response)
                    fleet.last_tx[i] = trig_x[i]
                    fleet.last_ty[i] = trig_y[i]
                    fleet.last_bucket[i] = bucket
                    fleet.requeries[i] += 1
                    if pushed[i]:
                        push_refreshes += 1
                        pushed[i] = False

        tick = fleet.associate_and_score(router.metro, t_us, profiler=prof)
        if recording:
            _record_association_tick(
                recorder, fleet, tick, trig_x, trig_y, t_us, viol_open
            )
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
                handoffs=int(fleet.handoffs.sum()),
                violating=int(tick[4].sum()),
            )

    if recording:
        _record_end_closes(
            recorder, fleet, viol_open, ticks * tick_us, recheck_m
        )

    while next_event < len(events):
        register_event(events[next_event], next_event)
        next_event += 1

    tallies = _fleet_report(fleet, ticks, recheck_m)
    connected_ticks = tallies["connected_ticks"]
    violation_ticks = tallies["violation_ticks"]
    client_ticks = tallies["client_ticks"]
    if tel_on:
        frontend.publish_metrics(tel)
        tel.counter("storm_queries").inc(storm_queries)
        tel.counter("requeries").inc(tallies["requeries"])
        tel.counter("deferred_requeries").inc(deferred_requeries)
        tel.counter("push_refreshes").inc(push_refreshes)
        tel.counter("handoffs").inc(tallies["handoffs"])
        tel.counter("vacations").inc(tallies["vacations"])
        tel.counter("violation_ticks").inc(violation_ticks)
        tel.counter("connected_ticks").inc(connected_ticks)
        tel.counter("disconnected_ticks").inc(tallies["disconnected_ticks"])
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
        "requeries": tallies["requeries"],
        "deferred_requeries": deferred_requeries,
        "push_refreshes": push_refreshes,
        "handoffs": tallies["handoffs"],
        "vacations": tallies["vacations"],
        "connected_ticks": connected_ticks,
        "disconnected_ticks": tallies["disconnected_ticks"],
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
        "per_client": tallies["per_client"],
        "final_cells": tallies["final_cells"],
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
