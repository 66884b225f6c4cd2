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
* **Association (directional motion slack)** — each client keeps its
  live-AP column ``best_col``, the class ``cls`` of its current
  response, and a ``slack``: how far it may walk along its current leg
  before another eligible AP could be nearer.  Walking ``s`` metres
  along the unit leg direction ``u`` changes ``f_j = d2_j - d2_best``
  by exactly ``-2s u.(a_j - a_best)`` (the ``s**2`` terms cancel), so
  the slack is the least ``(f_j - m) / (2u.(a_j - a_best))`` over the
  eligible APs *j* the client approaches, with the margin *m* below.
  An AP it does not approach bounds nothing while ``f_j - m`` is
  positive; otherwise (and on a zero-length leg) the client is due at
  the next tick.  With fewer than two eligible APs the slack is
  ``inf``, and a walker parallel to a bisector never runs out of slack
  for it.  :meth:`~VectorFleet.advance` subtracts ``step_m * (1 +
  1e-9)`` from every slack and sends a waypoint crosser's to ``-inf``
  (a slack holds for one leg); a class change in
  :meth:`~VectorFleet.commit_recheck` does the same.  A tick
  re-evaluates only the clients whose slack is negative, in chunks of
  at most 2^14 (rows x live APs) squared distances with the scalar
  arithmetic, denied APs at ``inf``, and the first column equal to the
  minimum (ascending ``ap_id``, the scalar tie-break); the approach
  rates are one (live APs x 3) @ (3 x rows) product.  Vacation and
  handoff run on those rows only: an unchanged class still permits
  the AP it chose.  A steady tick costs a few passes over the fleet
  plus the re-evaluated clients times the live APs.
* **Snapshot diffs** — :meth:`~VectorFleet.set_snapshot` compares the
  live list ``(ap_id, x, y, spans)`` with the last one.  An identical
  list changes nothing; otherwise ``best_col`` follows each AP to its
  new column, a client whose AP went away or changed channel is due,
  and each added or changed AP is folded into the slack of every
  client whose class permits it (its term from the client's current
  position, negative when the AP is no further than the client's own,
  so a tie at a lower column is re-decided).
* **Compliance** — per active incumbent, a squared-form coverage mask
  (:func:`~repro.wsdb.model.point_in_circle`'s algebra, elementwise)
  ANDed with "the client's AP spans this incumbent's channel".

**The bit-identity contract.**  Every float an outcome depends on goes
through +, -, *, /, sqrt, and floor only — all correctly-rounded
IEEE-754 operations — in the same operand order as the scalar fleet,
so positions, distances, and cell ids are bit-identical, not merely
close.  Association skips a client only while its slack proves that
the same column would win.  The margin is ``m = 1e-9 * 2 * (max |a|^2
+ max(|p|^2, |w|^2)) + 2 * 1e-6 * D`` for live APs *a*, the client's
position *p* and waypoint *w*, and *D* the diagonal of the live APs'
bounding box:

* the first term bounds every squared distance the leg can see
  (``|a - q|^2 <= 2|a|^2 + 2|q|^2``, and ``|q|^2 <= max(|p|^2, |w|^2)``
  on the segment), so it covers, about 10^6 times over, the few-ulp
  rounding of the squared distances (now and at any later tick), of
  the leg direction and the approach rates times the distance walked,
  and of the slack arithmetic itself;
* the second covers lateral drift: a leg re-aims at its fixed waypoint
  every tick, so a walker strays from the leg's line by a few ulps of
  a coordinate per tick (~1e-12 m on a metro; hundreds of thousands of
  ticks on one leg stay far under 1e-6 m), and a drift *e* moves
  ``f_j`` by at most ``2e|a_j - a_best| <= 2eD``;
* the step decrement's ``1e-9`` covers the rounding of the position
  update and of the running subtraction.

So a re-evaluation at any skipped tick would find the same AP strictly
nearest.  The slack's own floats are not held to the scalar operand
order (the approach rates are a matrix product): they decide only
which clients are re-evaluated, never what a re-evaluation picks.
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
#: pass: at most 128 KiB of float64, so a tick that re-evaluates every
#: client (the first) adds no more to peak memory than a steady one,
#: and each chunk stays in cache.
_CHUNK = 1 << 14

#: The slack margins (module docstring): relative to the largest
#: squared distance a leg can see, and the lateral drift in metres.
_EPS_REL = 1e-9
_EPS_ABS = 1e-6


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
        # eligibility class of its current response (-1: none yet), and
        # how far it may still walk along its leg before another
        # eligible AP can be nearer (-inf: due a re-evaluation, as
        # everyone is before the first); 16 bytes a client.
        self.best_col = np.full(self.n, -1, dtype=np.int32)
        self.cls = np.full(self.n, -1, dtype=np.int32)
        self.slack = np.full(self.n, -np.inf)
        #: Client rows association has re-evaluated since construction.
        self.reevaluated = 0
        # Snapshot-dependent state (set_snapshot): the live list as
        # (ap_id, x, y, spans) per column, and its columns.
        self._live: list[tuple[int, float, float, frozenset[int]]] = []
        self._ap_x = np.zeros(0, dtype=np.float64)
        self._ap_y = np.zeros(0, dtype=np.float64)
        self._live_spans: list[frozenset[int]] = []
        # Index -1 ("no AP") reads the trailing pad of the next three:
        # no ap_id, no column, and a class row that denies nothing.
        self._live_ids = np.full(1, -1, dtype=np.int64)
        self._col_of = np.full(1, -1, dtype=np.int64)
        self._denied = np.zeros((1, 0), dtype=bool)
        self._denies = np.zeros(0, dtype=bool)  # per class: denies any AP
        # The live APs as [x, y, 1] rows, for the slack's approach rates.
        self._ap_rows = np.zeros((0, 3))
        self._class_ids: dict[tuple[bool, ...], int] = {}
        self._resp_class = np.zeros(1, dtype=np.int32)
        self._uhf_cols: dict[int, np.ndarray] = {}
        # The slack margin's snapshot terms: the largest squared norm
        # of a live AP, and the diagonal of their bounding box.
        self._norm2 = 0.0
        self._spread = 0.0

    # -- AP snapshot ---------------------------------------------------------

    def set_snapshot(
        self,
        live_aps: list[tuple[Any, frozenset[int]]],
        num_aps: int,
    ) -> None:
        """Columnarize one ``snapshot_assigned_aps`` live list (ascending
        ``ap_id``, as that function gives it) and diff it against the
        last one.

        An identical list changes nothing.  Otherwise the classes are
        re-interned and the per-channel span masks dropped (both are
        pure functions of the snapshot and the response table); each
        client's ``best_col`` follows its AP to its new column, and
        ``cls`` becomes its current response's new class.  A client
        whose AP went away or changed channel re-evaluates at the next
        association; each added or changed AP its class permits is
        folded into its slack (:meth:`_fold`), which goes negative
        where that AP is no further than the client's own.
        """
        live = [(ap.ap_id, ap.x_m, ap.y_m, spans) for ap, spans in live_aps]
        if live == self._live and len(self._col_of) == num_aps + 1:
            return
        # Old column -> new column of the same unchanged AP (-1: gone or
        # changed; the pad maps -1 to -1), and the new columns to fold.
        kept = {entry: col for col, entry in enumerate(self._live)}
        remap = np.full(len(self._live) + 1, -1, dtype=np.int32)
        added = []
        for col, entry in enumerate(live):
            old = kept.get(entry)
            if old is None:
                added.append(col)
            else:
                remap[old] = col

        self._live = live
        self._ap_x = np.array([e[1] for e in live], dtype=np.float64)
        self._ap_y = np.array([e[2] for e in live], dtype=np.float64)
        self._live_spans = [e[3] for e in live]
        self._live_ids = np.array([e[0] for e in live] + [-1], dtype=np.int64)
        self._col_of = np.full(num_aps + 1, -1, dtype=np.int64)
        self._col_of[self._live_ids[:-1]] = np.arange(len(live))
        self._class_ids = {}
        self._denied = np.zeros((len(live) + 1, 0), dtype=bool)
        self._resp_class = self._classes(self.responses.sets)
        self._uhf_cols = {}
        self._ap_rows = np.column_stack(
            (self._ap_x, self._ap_y, np.ones(len(live)))
        )
        if live:
            ax, ay = self._ap_x, self._ap_y
            self._norm2 = float((ax * ax + ay * ay).max())
            self._spread = float(np.hypot(np.ptp(ax), np.ptp(ay)))

        self.cls = self._resp_class[self.resp_id]
        best_col = remap[self.best_col]
        self.slack[(best_col < 0) & (self.best_col >= 0)] = -np.inf
        self.best_col = best_col
        for col in added:
            self._fold(col)

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
            self._denies = self._denied.any(axis=0)
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
        rest cross again in the next pass.  A walker that stays on its
        leg moves *step_m* along it, so its association slack shrinks
        by that much (times ``1 + 1e-9`` for the rounding of the
        position update); a crosser's slack, which held for its old leg
        only, goes to ``-inf``.
        """
        x, y, wx, wy = self.x, self.y, self.wx, self.wy
        dx = wx - x
        dy = wy - y
        leg = np.sqrt(dx * dx + dy * dy)
        idx = np.flatnonzero(leg <= step_m)
        with np.errstate(divide="ignore", invalid="ignore"):
            x += dx / leg * step_m
            y += dy / leg * step_m
        # A slack holds along one leg only: crossers re-evaluate.
        self.slack -= step_m * (1 + 1e-9)
        self.slack[idx] = -np.inf
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
        """Adopt fresh response *ids* for the re-checked clients *idx*.

        A client whose eligibility class changes is due a
        re-evaluation: its slack goes to ``-inf``.
        """
        self.resp_id[idx] = ids
        known = len(self._resp_class)
        if len(self.responses) > known:
            self._resp_class = np.concatenate(
                [self._resp_class, self._classes(self.responses.sets[known:])]
            )
        cls = self._resp_class[ids]
        self.slack[idx[cls != self.cls[idx]]] = -np.inf
        self.cls[idx] = cls
        self.last_tx[idx] = trig_x[idx]
        self.last_ty[idx] = trig_y[idx]
        self.last_bucket[idx] = bucket
        self.requeries[idx] += 1

    def _heading(self, rows: np.ndarray) -> tuple[np.ndarray, ...]:
        """The positions of the clients *rows*, twice their unit leg
        direction (NaN on a zero-length leg), and the margin of their
        slack numerators."""
        x, y = self.x[rows], self.y[rows]
        wx, wy = self.wx[rows], self.wy[rows]
        ex, ey = wx - x, wy - y
        half = np.sqrt(ex * ex + ey * ey) / 2
        with np.errstate(divide="ignore", invalid="ignore"):
            ex /= half
            ey /= half
        reach = np.maximum(x * x + y * y, wx * wx + wy * wy)
        margin = _EPS_REL * 2 * (self._norm2 + reach)
        margin += 2 * _EPS_ABS * self._spread
        return x, y, ex, ey, margin

    def _fold(self, col: int) -> None:
        """Fold the newly live AP in column *col* into the slack of each
        client whose class permits it.

        The same directional term as :meth:`_reassociate`'s, measured
        from the client's current position against its current AP; a
        client with no AP, or one that *col* is no further from, goes
        negative.  Clients already due a re-evaluation are skipped.
        """
        rows = np.flatnonzero(~self._denied[col, self.cls] & (self.slack >= 0))
        if not rows.size:
            return
        x, y, ux, uy, margin = self._heading(rows)
        best = self.best_col[rows]
        dx, dy = self._ap_x[col] - x, self._ap_y[col] - y
        bx, by = self._ap_x[best] - x, self._ap_y[best] - y
        b1 = np.where(best >= 0, bx * bx + by * by, np.inf)
        proj = np.maximum(dx * ux + dy * uy - (bx * ux + by * uy), 0.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = (dx * dx + dy * dy - (b1 + margin)) / proj
        term[term != term] = -np.inf  # NaN: due at the next tick
        self.slack[rows] = np.minimum(self.slack[rows], term)

    def _reassociate(
        self,
        rows: np.ndarray,
        heading: tuple[np.ndarray, ...],
        best_col: np.ndarray,
        new_ap: np.ndarray,
        handoff_mask: np.ndarray,
    ) -> None:
        """Vacation, association, slack and handoff of the clients *rows*.

        Writes their entries of *best_col*, *new_ap* and *handoff_mask*
        and of the ``slack`` column, and bumps their counters.  Squared
        distances to every live AP use the scalar
        ``(ap_x - x)**2 + (ap_y - y)**2`` arithmetic; an AP the class
        denies reads ``inf``, and the first column equal to the minimum
        wins, the lowest ``ap_id`` among equals.  The slack is the
        directional bound of the module docstring (``inf`` with fewer
        than two eligible APs); *heading* is :meth:`_heading` of the
        rows.
        """
        row_cls = self.cls[rows]
        prev = self.prev_ap[rows]
        denies = self._denies[row_cls].any()
        if denies:
            # Vacation: the previous AP (still assigned this snapshot)
            # whose spans the current response denies.
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
        r = rows.size
        x, y, ux, uy, margin = heading
        d2 = self._ap_x[:, None] - x
        d2 *= d2
        tmp = self._ap_y[:, None] - y
        tmp *= tmp
        d2 += tmp
        if denies:
            denied = self._denied[:-1].take(row_cls, axis=1)
            np.copyto(d2, np.inf, where=denied)
        b1 = d2.min(axis=0)
        best = (d2 == b1).argmax(axis=0)
        d2[best, np.arange(r)] = np.inf
        # Slack: f_j = d2_j - b1 falls by s * 2u.(a_j - a_best) over s
        # metres of the leg; the first eligible AP to reach the margin
        # bounds it.  The approach rates are one (live APs x 3) by
        # (3 x rows) product, [ax, ay, 1] . [2ux, 2uy, -2u.a_best]
        # (einsum's own loops: a BLAS call would add its buffers to the
        # peak memory).
        lead = np.empty((3, r))
        lead[0], lead[1] = ux, uy
        np.negative(self._ap_x[best] * ux + self._ap_y[best] * uy, out=lead[2])
        proj = np.einsum("jk,kr->jr", self._ap_rows, lead, out=tmp)
        np.maximum(proj, 0.0, out=proj)
        with np.errstate(divide="ignore", invalid="ignore"):
            d2 -= b1 + margin
            d2 /= proj
            slack = d2.min(axis=0)
        # NaN (a zero numerator over no approach, or no heading):
        # re-evaluate next tick.
        slack[slack != slack] = -np.inf
        connected = b1 < np.inf
        slack[~connected] = np.inf
        self.slack[rows] = slack
        col = np.where(connected, best, -1)
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
        clients whose slack ran out are re-evaluated (a class change,
        a waypoint crossing or a snapshot change that can move a
        client's AP sends its slack below zero); every other client
        keeps its AP, and with it an AP its class still permits, so it
        neither vacates nor hands off.

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
            idx = np.flatnonzero(self.slack < 0)
            self.reevaluated += idx.size
            best_col = self.best_col.copy()
            new_ap = self.prev_ap.copy()
            handoff_mask = np.zeros(m, dtype=bool)
            if idx.size:
                heading = self._heading(idx)
                step = max(1, _CHUNK // max(1, len(self._ap_x)))
                for lo in range(0, idx.size, step):
                    part = slice(lo, lo + step)
                    self._reassociate(
                        idx[part], tuple(h[part] for h in heading),
                        best_col, new_ap, handoff_mask,
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
                span_cols = self._spans_cols(entry.uhf_index)
                if not span_cols.any() or not entry.active_at(t_us):
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
