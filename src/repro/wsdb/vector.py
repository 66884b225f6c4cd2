"""The columnar mobile-client engine: million-client fleets on numpy.

:class:`VectorFleet` is the fleet :func:`~repro.wsdb.session.run_session`
runs when ``engine="vector"``.  Its per-client twin,
:class:`~repro.wsdb.session.ScalarFleet`, walks one client at a time —
perfectly clear, and capped around 10^3 clients.  This module holds the
whole fleet in columns instead (positions, waypoints, cached-response
ids, trigger cells, TTL buckets, assigned APs, per-client counters —
one numpy array each) and batches the per-tick hot path as array ops:

* **Waypoint advance** — the common case (the tick ends before the
  current leg does) is one fused array expression; the rare
  waypoint-crossing walkers fall back to the scalar
  :func:`~repro.wsdb.mobility.advance_position` with their own
  per-client RNGs, so waypoint draws replay the exact scalar streams.
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
  Eligibility (``ap_spans <= response``) is a (responses x APs) bool
  table, one row per table id: rebuilt when the AP snapshot changes,
  extended only when the table has grown, and a tick's per-client
  eligibility is one fancy-index into it.
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
IEEE-754 operations — in the same operand order as the scalar fleet,
so positions, distances, and cell ids are bit-identical, not merely
close.  The session reports compare equal (``==``) across the two
fleets, field for field, including the nested db/frontend/push stats —
the property ``tests/wsdb/test_vector.py`` sweeps seeds x fleet sizes
x speeds to pin.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.telemetry.profiler import NULL_PROFILER
from repro.wsdb.mobility import RoamingClient, advance_position
from repro.wsdb.service import ResponseTable

__all__ = ["VectorFleet"]

#: Sentinel for "no cell observed yet" in the trigger-cell columns;
#: far outside any reachable quantization cell, so the first tick's
#: comparison always fires (every client queries at tick 0).
_NO_CELL = np.iinfo(np.int64).min


class VectorFleet:
    """Columnar state for a fleet of waypoint-walking mobile clients.

    Built from the same :func:`~repro.wsdb.mobility.spawn_clients`
    output the scalar fleet starts from, so initial positions, waypoints,
    and the per-client RNG objects (kept for waypoint-crossing draws)
    are shared by construction.  *responses* is the table the query
    path answers in (None: a table of its own).
    """

    def __init__(
        self,
        clients: list[RoamingClient],
        extent_m: float,
        responses: ResponseTable | None = None,
    ):
        self.n = len(clients)
        self.extent_m = extent_m
        self.x = np.array([c.x_m for c in clients], dtype=np.float64)
        self.y = np.array([c.y_m for c in clients], dtype=np.float64)
        self.wx = np.array([c.waypoint[0] for c in clients], dtype=np.float64)
        self.wy = np.array([c.waypoint[1] for c in clients], dtype=np.float64)
        self.rngs = [c.rng for c in clients]
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

        Rebuilds the eligibility table for every response id and drops
        the per-channel span masks (both are pure functions of the
        snapshot + response table).
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
        self._elig = self._elig_rows(self.responses.sets)
        self._uhf_cols = {}

    def _elig_rows(self, responses: list[frozenset[int]]) -> np.ndarray:
        rows = [
            [spans <= resp for spans in self._live_spans]
            for resp in responses
        ]
        return np.array(rows, dtype=bool).reshape(
            len(responses), len(self._live_spans)
        )

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

        The non-crossing fast path is :func:`advance_position`'s
        else-branch arithmetic (``pos += delta / leg * step``)
        elementwise; walkers
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
        ids: np.ndarray,
    ) -> None:
        """Adopt fresh response *ids* for the re-checked clients *idx*."""
        self.resp_id[idx] = ids
        known = len(self._elig)
        if len(self.responses) > known:
            self._elig = np.concatenate(
                [self._elig, self._elig_rows(self.responses.sets[known:])]
            )
        self.last_tx[idx] = trig_x[idx]
        self.last_ty[idx] = trig_y[idx]
        self.last_bucket[idx] = bucket
        self.requeries[idx] += 1

    def associate_and_score(
        self, metro, t_us: float, profiler: Any = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One tick of vacation, association, handoff, and compliance.

        Mirrors the scalar fleet's per-client sequence exactly: vacate
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
