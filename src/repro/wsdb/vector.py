"""The columnar mobile-client engine: million-client fleets on numpy.

:class:`VectorFleet` is the fleet :func:`~repro.wsdb.session.run_session`
runs when ``engine="vector"``.  Its per-client twin,
:class:`~repro.wsdb.session.ScalarFleet`, walks one client at a time —
perfectly clear, and capped around 10^3 clients.  This module holds the
whole fleet in columns instead (positions, waypoints, cached-response
ids, trigger cells, TTL buckets, assigned APs, per-client counters —
one numpy array each) and batches the per-tick hot path as array ops:

* **Waypoint advance** — the common case (the tick ends before the
  current leg does) is one fused array expression over every walker;
  the walkers that reach a waypoint then replay
  :func:`~repro.wsdb.mobility.advance_position`'s steps as array
  passes over the crossing subset, each drawing the next waypoint
  from the counter-based :func:`~repro.wsdb.mobility.waypoints` (a
  pure function of the fleet key, the client and its draw index), so
  no client carries a random-number generator.
* **Re-check detection** — 100 m square crossings and TTL expiry via
  integer cell arithmetic (``floor(x / recheck_m)`` per axis), one
  compare per trigger.
* **Grouped DB lookups** — the session loop submits a tick's
  re-checkers' cells in client order as one batch (straight to
  :meth:`~repro.wsdb.service.WhiteSpaceDatabase.response_ids_in_cells`,
  or as one frontend burst); the (cell, TTL-bucket) response cache is the
  memoization, so N clients in one cell cost one computed response,
  and the database sees the exact query sequence of the scalar fleet
  (cache stats match to the eviction).
* **Response ids** — the query path answers in ids of the service's
  :class:`~repro.wsdb.service.ResponseTable` (shared by every shard of
  a cluster), and a commit is one ``resp_id[idx] = ids`` store.
  Eligibility (``ap_spans <= response``) is interned per AP snapshot
  into *classes*: responses that permit the same live APs share one
  class id, and a (live APs x classes) table says which APs each class
  denies.  It is rebuilt when the AP snapshot changes and extended
  only when the response table has grown.
* **Association (motion slack)** — each client keeps its live-AP
  column ``best_col``, the class ``cls`` it was chosen under, and a
  ``slack``: half the gap between its nearest and second-nearest
  eligible AP distances, ``(sqrt(b2) - sqrt(b1)) / 2``, less a relative
  margin of ``1e-9 * sqrt(b2)`` and an absolute one of 1e-6 m (``inf``
  with fewer than two eligible APs).  A walker moves at most
  ``step_m`` a tick, so its nearest AP can only get ``step_m`` nearer
  or further while every other gets at most that much nearer;
  :meth:`~VectorFleet.advance` subtracts ``step_m * (1 + 1e-9)`` from
  every slack.  A tick re-evaluates only the clients whose slack went
  negative or whose class changed, or every client after
  :meth:`~VectorFleet.set_snapshot`, in chunks of at most 2^14
  (rows x live APs) squared distances with the scalar arithmetic,
  denied APs at ``inf``, and the first column equal to the minimum
  (ascending ``ap_id``, the scalar tie-break).  Vacation and handoff
  run on those rows only: an unchanged class still permits the AP it
  chose.  A steady tick costs a few passes over the fleet plus the
  re-evaluated clients times the live APs, not every client times
  every AP.
* **Compliance** — per active incumbent, a squared-form coverage mask
  (:func:`~repro.wsdb.model.point_in_circle`'s algebra, elementwise)
  ANDed with "the client's AP spans this incumbent's channel".

**The bit-identity contract.**  Every float the hot path produces goes
through +, -, *, /, sqrt, and floor only — all correctly-rounded
IEEE-754 operations — in the same operand order as the scalar fleet,
so positions, distances, and cell ids are bit-identical, not merely
close.  Association skips a client only while its slack proves the
same AP would win: the relative margin covers the rounding of the
squared distances, the square roots and the step length (each a few
ulps, far under 1e-9), and the absolute one the per-tick rounding of
the coordinates (an ulp of a metro coordinate, ~1e-12 m) and of the
running slack subtraction, so a re-evaluation at any skipped tick
would have picked the same column.
The session reports compare equal (``==``) across the two fleets,
field for field, including the nested db/frontend/push stats — the
property ``tests/wsdb/test_vector.py`` sweeps seeds x fleet sizes x
speeds to pin, and checks tick by tick against a full re-evaluation.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.telemetry.profiler import NULL_PROFILER
from repro.wsdb.mobility import FleetColumns, waypoints
from repro.wsdb.service import ResponseTable

__all__ = ["VectorFleet"]

#: Sentinel for "no cell observed yet" in the trigger-cell columns;
#: far outside any reachable quantization cell, so the first tick's
#: comparison always fires (every client queries at tick 0).
_NO_CELL = np.iinfo(np.int64).min

#: Squared distances (live APs x clients) per chunk of a re-association
#: pass: at most 128 KiB of float64, so a snapshot rebuild that
#: re-evaluates every client adds no more to peak memory than a steady
#: tick, and each chunk stays in cache.
_CHUNK = 1 << 14


class VectorFleet:
    """Columnar state for a fleet of waypoint-walking mobile clients.

    Built from the :func:`~repro.wsdb.mobility.spawn_clients` columns
    the scalar fleet starts from (copied, so one spawn can seed several
    fleets), so initial positions, waypoints and the draw index of each
    waypoint are shared by construction.  *responses* is the table the
    query path answers in (None: a table of its own).
    """

    def __init__(
        self,
        spawned: FleetColumns,
        extent_m: float,
        responses: ResponseTable | None = None,
    ):
        self.n = len(spawned.x)
        self.extent_m = extent_m
        self.key = spawned.key
        self.x = np.array(spawned.x, dtype=np.float64)
        self.y = np.array(spawned.y, dtype=np.float64)
        self.wx = np.array(spawned.wx, dtype=np.float64)
        self.wy = np.array(spawned.wy, dtype=np.float64)
        self.drawn = np.array(spawned.drawn, dtype=np.int64)
        # Cached-response ids into the response table; id 0 is the
        # "never queried" empty response every client starts with.
        self.responses = ResponseTable() if responses is None else responses
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
        # Motion-slack association: each client's live-AP column, the
        # eligibility class it was chosen under, and how far the client
        # may still walk before another eligible AP can be nearer.
        # Allocated by the first association; 16 bytes a client.
        self.best_col = np.zeros(0, dtype=np.int32)
        self.cls = np.zeros(0, dtype=np.int32)
        self.slack = np.zeros(0)
        # Snapshot-dependent state (set_snapshot).
        self._fresh = True
        self._ap_x = np.zeros(0, dtype=np.float64)
        self._ap_y = np.zeros(0, dtype=np.float64)
        self._live_spans: list[frozenset[int]] = []
        # Index -1 ("no AP") reads the trailing pad of the next three:
        # no ap_id, no column, and a class row that denies nothing.
        self._live_ids = np.full(1, -1, dtype=np.int64)
        self._col_of = np.full(1, -1, dtype=np.int64)
        self._denied = np.zeros((1, 0), dtype=bool)
        self._class_ids: dict[tuple[bool, ...], int] = {}
        self._resp_class = np.zeros(1, dtype=np.int32)
        self._uhf_cols: dict[int, np.ndarray] = {}

    # -- AP snapshot ---------------------------------------------------------

    def set_snapshot(
        self,
        live_aps: list[tuple[Any, frozenset[int]]],
        num_aps: int,
    ) -> None:
        """Columnarize one ``snapshot_assigned_aps`` live list.

        Re-interns the eligibility class of every response id and drops
        the per-channel span masks (both are pure functions of the
        snapshot + response table); the next association re-evaluates
        every client.
        """
        self._ap_x = np.array([ap.x_m for ap, _ in live_aps], dtype=np.float64)
        self._ap_y = np.array([ap.y_m for ap, _ in live_aps], dtype=np.float64)
        self._live_spans = [spans for _, spans in live_aps]
        self._live_ids = np.array(
            [ap.ap_id for ap, _ in live_aps] + [-1], dtype=np.int64
        )
        self._col_of = np.full(num_aps + 1, -1, dtype=np.int64)
        for col, (ap, _) in enumerate(live_aps):
            self._col_of[ap.ap_id] = col
        self._class_ids = {}
        self._denied = np.zeros((len(live_aps) + 1, 0), dtype=bool)
        self._resp_class = self._classes(self.responses.sets)
        self._uhf_cols = {}
        self._fresh = True

    def _classes(self, responses: list[frozenset[int]]) -> np.ndarray:
        """The eligibility class id of each response, interning new ones.

        A class is the tuple of live-AP columns a response permits
        (``ap_spans <= response``); responses that permit the same APs
        share one id.  ``_denied[col, c]`` says class *c* denies the AP
        in column *col*; its last row, which column -1 reads, denies
        nothing.
        """
        ids = self._class_ids
        out = []
        for resp in responses:
            row = tuple(spans <= resp for spans in self._live_spans)
            out.append(ids.setdefault(row, len(ids)))
        if len(ids) > self._denied.shape[1]:
            permitted = np.array(list(ids), dtype=bool).reshape(
                len(ids), len(self._live_spans)
            )
            self._denied = np.concatenate(
                [~permitted.T, np.zeros((1, len(ids)), dtype=bool)]
            )
        return np.array(out, dtype=np.int32)

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

        Every walker first takes
        :func:`~repro.wsdb.mobility.advance_position`'s
        else-branch arithmetic (``pos += delta / leg * step``)
        elementwise.  The walkers whose leg ends within the tick then
        replay its loop as array passes over the crossing subset: each
        pass stands them on their waypoint, draws the next one, drops
        those with no distance left or a degenerate double-draw, and
        moves those whose new leg is longer than what remains; the
        rest cross again in the next pass.  No walker moves more than
        *step_m*, so every association slack shrinks by that much
        (times ``1 + 1e-9`` for the rounding of the position update).
        """
        x, y, wx, wy = self.x, self.y, self.wx, self.wy
        dx = wx - x
        dy = wy - y
        leg = np.sqrt(dx * dx + dy * dy)
        idx = np.flatnonzero(leg <= step_m)
        with np.errstate(divide="ignore", invalid="ignore"):
            x += dx / leg * step_m
            y += dy / leg * step_m
        leg = leg[idx]
        remaining = np.full(idx.size, step_m)
        while idx.size:
            old_wx, old_wy = wx[idx], wy[idx]
            x[idx] = old_wx
            y[idx] = old_wy
            remaining -= leg
            drawn = self.drawn[idx] + 1
            self.drawn[idx] = drawn
            new_wx, new_wy = waypoints(self.key, idx, drawn, self.extent_m)
            wx[idx] = new_wx
            wy[idx] = new_wy
            go = remaining > 0.0
            zero = leg == 0.0
            if zero.any():
                # A degenerate double-draw of the same point ends the tick.
                go &= ~(zero & (new_wx == old_wx) & (new_wy == old_wy))
            idx, remaining = idx[go], remaining[go]
            dx = new_wx[go] - old_wx[go]
            dy = new_wy[go] - old_wy[go]
            leg = np.sqrt(dx * dx + dy * dy)
            ahead = leg > remaining
            if ahead.any():
                walk = idx[ahead]
                x[walk] += dx[ahead] / leg[ahead] * remaining[ahead]
                y[walk] += dy[ahead] / leg[ahead] * remaining[ahead]
                cross = ~ahead
                idx, remaining, leg = idx[cross], remaining[cross], leg[cross]
        self.slack -= step_m * (1 + 1e-9)

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
        ids: np.ndarray,
    ) -> None:
        """Adopt fresh response *ids* for the re-checked clients *idx*."""
        self.resp_id[idx] = ids
        known = len(self._resp_class)
        if len(self.responses) > known:
            self._resp_class = np.concatenate(
                [self._resp_class, self._classes(self.responses.sets[known:])]
            )
        self.last_tx[idx] = trig_x[idx]
        self.last_ty[idx] = trig_y[idx]
        self.last_bucket[idx] = bucket
        self.requeries[idx] += 1

    def _reassociate(
        self,
        rows: np.ndarray,
        cls: np.ndarray,
        best_col: np.ndarray,
        new_ap: np.ndarray,
        handoff_mask: np.ndarray,
    ) -> None:
        """Vacation, association, slack and handoff of the clients *rows*.

        Writes their entries of *best_col*, *new_ap* and *handoff_mask*
        and of the ``cls``/``slack`` columns, and bumps their counters.
        Squared distances to every live AP use the scalar
        ``(ap_x - x)**2 + (ap_y - y)**2`` arithmetic; an AP the class
        denies reads ``inf``, and the first column equal to the minimum
        wins, the lowest ``ap_id`` among equals.  The slack is half the
        gap between the nearest and second-nearest eligible distances,
        less the rounding margins (``inf`` with fewer than two eligible
        APs).
        """
        row_cls = cls[rows]
        self.cls[rows] = row_cls
        prev = self.prev_ap[rows]
        # Vacation: the previous AP (still assigned this snapshot) whose
        # spans the current response denies.
        vacated = self._denied[self._col_of[prev], row_cls]
        self.vacations[rows[vacated]] += 1

        n_live = len(self._ap_x)
        if not n_live:
            best_col[rows] = -1
            new_ap[rows] = -1
            self.slack[rows] = np.inf
            return
        # (live APs x rows): each AP's distances are one contiguous row,
        # so the minima over APs are elementwise passes.
        d2 = self._ap_x[:, None] - self.x[rows]
        d2 *= d2
        ddy = self._ap_y[:, None] - self.y[rows]
        ddy *= ddy
        d2 += ddy
        np.copyto(d2, np.inf, where=np.take(self._denied[:-1], row_cls, axis=1))
        b1 = d2.min(axis=0)
        best = (d2 == b1).argmax(axis=0)
        d2[best, np.arange(rows.size)] = np.inf
        b2 = d2.min(axis=0)
        r1, r2 = np.sqrt(b1), np.sqrt(b2)
        with np.errstate(invalid="ignore"):  # inf - inf: replaced below
            gap = (r2 - r1) / 2 - 1e-9 * r2 - 1e-6
        self.slack[rows] = np.where(b2 < np.inf, gap, np.inf)
        col = np.where(b1 < np.inf, best, -1)
        best_col[rows] = col
        ap = self._live_ids[col]
        new_ap[rows] = ap
        handoff = (prev >= 0) & (ap >= 0) & (ap != prev)
        handoff_mask[rows] = handoff
        self.handoffs[rows[handoff]] += 1

    def associate_and_score(
        self, metro, t_us: float, profiler: Any = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One tick of vacation, association, handoff, and compliance.

        Mirrors the scalar fleet's per-client sequence exactly: vacate
        when the previous AP's spans are no longer permitted, associate
        with the nearest eligible AP (first minimum over ascending
        ``ap_id`` columns — the scalar tie-break), count
        handoffs/connected ticks, then score ground truth.  Only the
        clients whose slack ran out, whose eligibility class changed,
        or all of them after :meth:`set_snapshot`, are re-evaluated;
        every other client keeps its AP, and with it an AP its class
        still permits, so it neither vacates nor hands off.

        Returns the tick's outcome arrays ``(connected, new_ap,
        best_col, handoff_mask, violating)`` — fresh arrays the
        trace-recording hooks read; counters are already applied.

        An optional wall-clock ``profiler`` splits the stage into its
        two phases ("associate", "compliance") — pure observation, the
        arrays are untouched.
        """
        prof = NULL_PROFILER if profiler is None else profiler
        with prof.phase("associate"):
            m = self.n
            cls = self._resp_class[self.resp_id]
            if self._fresh:
                self._fresh = False
                idx = np.arange(m)
                best_col = np.full(m, -1, dtype=np.int32)
                self.cls = np.empty(m, dtype=np.int32)
                self.slack = np.empty(m)
            else:
                idx = np.flatnonzero((self.slack < 0) | (cls != self.cls))
                best_col = self.best_col.copy()
            new_ap = self.prev_ap.copy()
            handoff_mask = np.zeros(m, dtype=bool)
            step = max(1, _CHUNK // max(1, len(self._ap_x)))
            for lo in range(0, idx.size, step):
                self._reassociate(
                    idx[lo : lo + step], cls, best_col, new_ap, handoff_mask
                )
            connected = best_col >= 0
            self.disconnected_ticks += m - int(np.count_nonzero(connected))
            self.connected += connected
            self.best_col = best_col
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
