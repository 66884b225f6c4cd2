"""Mobile white-space clients roaming a metro: the 100 m re-check rule.

The FCC regime the wsdb models is built around *portable* devices: a
white space device that moves must re-query the database after
traveling ~100 m (and periodically even when parked).  This driver
models that workload — the one a per-coordinate response cache serves
worst and the cell-granular protocol
(:meth:`~repro.wsdb.service.WhiteSpaceDatabase.response_ids_in_cells`)
was built for:

* ``M`` mobile clients follow seeded waypoint paths across the metro
  plane at a fixed speed, each re-querying the database **only** when
  it crosses a quantization-square boundary (``recheck_m``) or its
  response's TTL bucket expires — the pull-based compliance rule, not
  continuous polling.
* Between re-queries a client acts on its last response (valid for its
  whole cell), associating with the nearest assigned
  :class:`~repro.wsdb.citywide.CityAp` whose channel the response
  permits at the client's location; association changes are counted as
  handoffs.
* Mid-session microphone registrations invalidate cached responses and
  displace covered APs (the citywide backup-channel walk).  A client
  whose path — or whose fresh response — runs into a protection zone
  on its AP's channel **vacates** the channel and hands off or
  disconnects.
* Compliance is scored against ground truth: a connected client whose
  channel is actually protected at its true position (it moved into a
  zone, or a mic session started, before its next re-check) is in
  violation for that tick.  The ``violation_free_fraction`` is the
  quality of the re-check rule itself — the staleness the pull model
  admits.

Everything derives from the master seed through labelled
:func:`~repro.sim.rng.stream_seed` streams, so a run is byte-identical
in any process — the contract the ``roaming`` run kind and
``ParallelRunner`` rely on.  Client paths need no per-client stream:
a fleet has one 64-bit key, and draw *k* of client *i* is the
stateless counter-based uniform
:func:`~repro.sim.rng.counter_uniform` of ``(key, i, k, axis)`` —
draw 0 is the start position and draw *k* >= 1 the *k*-th waypoint.
A fleet is therefore a handful of columns (position, waypoint, and
the waypoint's draw index), and client *i*'s path depends neither on
the fleet size nor on which engine walks it.

This module holds the client model (spawning, waypoint kinematics,
association, compliance) and the roaming entry point; the tick loop
itself is :func:`~repro.wsdb.session.run_session`, shared with the
querystorm driver and both engines.
"""

from __future__ import annotations

import math
from typing import Any, NamedTuple

import numpy as np

from repro.errors import SimulationError
from repro.sim.rng import counter_uniform, counter_uniform_array, stream_seed
from repro.wsdb.citywide import DEFAULT_INTERFERENCE_RADIUS_M, CityAp
from repro.wsdb.service import WhiteSpaceDatabase

__all__ = [
    "FleetColumns",
    "advance_position",
    "associate_nearest",
    "in_violation",
    "simulate_roaming",
    "spawn_clients",
    "waypoint",
    "waypoints",
]

#: The mobile-fleet engines the roaming and querystorm sessions run
#: on.  "scalar" is the per-client reference fleet
#: (:class:`~repro.wsdb.session.ScalarFleet`); "vector" is the
#: columnar numpy fleet (:mod:`repro.wsdb.vector`), bit-identical to
#: it by construction.
ENGINES = ("scalar", "vector")

#: The draw axes of a waypoint: 0 for x, 1 for y.
_AXES = np.array([0, 1], dtype=np.uint64)

#: Default client speed (meters/second): ~50 km/h, a metro vehicle.
DEFAULT_SPEED_MPS = 14.0

#: Default simulation tick (microseconds).  At the default speed a
#: client moves 14 m per tick — fine-grained against the 100 m rule.
DEFAULT_TICK_US = 1_000_000.0


class FleetColumns(NamedTuple):
    """A spawned fleet: one array per column, row *i* for client *i*.

    ``drawn`` is the draw index of each client's current waypoint (1
    at spawn); ``key`` is the fleet's stream key, from which
    :func:`waypoint` and :func:`waypoints` redraw any client's path.
    """

    key: int
    x: np.ndarray
    y: np.ndarray
    wx: np.ndarray
    wy: np.ndarray
    drawn: np.ndarray


def waypoint(
    key: int, client: int, k: int, extent_m: float
) -> tuple[float, float]:
    """Draw *k* of *client*'s path as a point ``(x, y)`` of the plane.

    Each coordinate is ``random.uniform(0, extent_m)``'s formula on
    :func:`~repro.sim.rng.counter_uniform`, axis 0 for x and 1 for y.
    """
    return (
        extent_m * counter_uniform(key, client, k, 0),
        extent_m * counter_uniform(key, client, k, 1),
    )


def waypoints(
    key: int, clients: np.ndarray, k: np.ndarray | int, extent_m: float
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`waypoint` over arrays of clients and draw indices, with
    the same floats; both axes are drawn in one pass."""
    u = counter_uniform_array(
        key, np.reshape(clients, (-1, 1)), np.reshape(k, (-1, 1)), _AXES
    )
    xy = extent_m * u
    return xy[:, 0], xy[:, 1]


def associate_nearest(
    x_m: float,
    y_m: float,
    known_free: frozenset[int],
    live_aps: list[tuple[CityAp, frozenset[int]]],
) -> CityAp | None:
    """The AP a client at (x, y) with response *known_free* associates to.

    Nearest assigned AP whose channel the response permits; equidistant
    APs resolve deterministically by ascending ``ap_id`` — the explicit
    tie-break the byte-identical parallel/sequential contract needs
    (``min`` alone would silently depend on list order).  Returns None
    when no AP's channel is permitted (the client disconnects).
    """
    eligible = [ap for ap, spans in live_aps if spans <= known_free]

    # Squared distance, not math.hypot: *, +, and the comparison are
    # correctly-rounded IEEE-754 operations, so the vectorized engine's
    # distance table reproduces this ordering bit-for-bit, and its
    # motion-slack bound rests on a few ulps of error per distance
    # (hypot's extra guard arithmetic carries no such guarantee).
    def _key(ap: CityAp) -> tuple[float, int]:
        dx = ap.x_m - x_m
        dy = ap.y_m - y_m
        return (dx * dx + dy * dy, ap.ap_id)

    return min(eligible, key=_key, default=None)


def advance_position(
    x_m: float,
    y_m: float,
    wx: float,
    wy: float,
    drawn: int,
    key: int,
    client: int,
    distance_m: float,
    extent_m: float,
) -> tuple[float, float, float, float, int]:
    """Advance waypoint walker *client* by *distance_m*.

    Returns ``(x, y, wx, wy, drawn)``: the new position, the current
    waypoint and its draw index.  Each waypoint reached draws the next
    one, :func:`waypoint` of ``drawn + 1``.  This is the scalar fleet's
    reference kinematics; the vector engine replays the same steps as
    array passes, in the same operand order.  Leg lengths use
    ``sqrt(dx*dx + dy*dy)`` — correctly-rounded IEEE-754 throughout —
    so numpy's elementwise passes compute the exact same floats.
    """
    remaining = distance_m
    while remaining > 0.0:
        dx, dy = wx - x_m, wy - y_m
        leg = math.sqrt(dx * dx + dy * dy)
        if leg <= remaining:
            x_m, y_m = wx, wy
            remaining -= leg
            drawn += 1
            new_wx, new_wy = waypoint(key, client, drawn, extent_m)
            if leg == 0.0 and (new_wx, new_wy) == (wx, wy):
                # Degenerate double-draw of the same point; give up the
                # remainder of this tick rather than spin.
                return x_m, y_m, new_wx, new_wy, drawn
            wx, wy = new_wx, new_wy
        else:
            x_m += dx / leg * remaining
            y_m += dy / leg * remaining
            remaining = 0.0
    return x_m, y_m, wx, wy, drawn


def spawn_clients(
    num_clients: int, seed: int, stream: str, extent_m: float
) -> FleetColumns:
    """The seeded mobile fleet both engines start from, as columns.

    The fleet's key is ``stream_seed(seed, stream)``; client *i*
    starts at draw 0 of its path and heads for draw 1, so fleet
    construction is byte-identical across engines and processes, and
    client *i*'s path never depends on how many peers exist.
    """
    key = stream_seed(seed, stream)
    clients = np.arange(num_clients, dtype=np.uint64)
    x, y = waypoints(key, clients, 0, extent_m)
    wx, wy = waypoints(key, clients, 1, extent_m)
    return FleetColumns(
        key, x, y, wx, wy, np.ones(num_clients, dtype=np.int64)
    )


def in_violation(
    metro, x_m: float, y_m: float, t_us: float, spanned: tuple[int, ...]
) -> bool:
    """Ground-truth compliance scorer shared by both engines.

    True when any UHF index the client's channel spans is actually
    protected at its true position — the reference linear scan, never a
    database query (measuring must not perturb cache stats).  The
    vectorized engine evaluates the same predicate as per-incumbent
    coverage masks built on :func:`~repro.wsdb.model.point_in_circle`'s
    squared-form algebra, so its verdicts are bit-identical.
    """
    truth = metro.occupied_at(x_m, y_m, t_us)
    return any(i in truth for i in spanned)


def simulate_roaming(
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
    engine: str = "scalar",
    recorder: Any = None,
    telemetry: Any = None,
    profiler: Any = None,
    spans: Any = None,
) -> dict[str, Any]:
    """Run one roaming session; returns a plain-data report.

    The report is JSON-plain throughout (the ``roaming`` run kind's
    probe routes it into an ``ExperimentResult`` unchanged).

    Args:
        db: the metro database (APs and clients share it).
        num_aps: fixed APs booted across the plane (citywide-style).
        num_clients: mobile clients following waypoint paths.
        duration_us: session length; the tick loop covers [0, duration].
        seed: master seed; placement, paths, and mic events derive
            from labelled streams of it.
        speed_mps: client speed along its path.
        recheck_m: movement granularity of the re-check rule (None:
            the database's own ``cache_resolution_m``, the aligned —
            and intended — configuration).
        mic_events: mid-session microphone registrations.
        tick_us: simulation step; movement, re-checks, association,
            and compliance are evaluated per tick.
        interference_radius_m: AP mutual-interference radius.
        engine: "scalar" (the per-client reference fleet,
            :class:`~repro.wsdb.session.ScalarFleet`) or "vector" (the
            columnar numpy engine, :mod:`repro.wsdb.vector`).  Both
            produce bit-identical reports; "vector" is the one that
            scales to millions of clients.
        recorder: a :class:`~repro.traces.record.TraceRecorder` to
            stream dense run events into (None: the zero-overhead null
            recorder).  Recording observes only — reports are
            bit-identical with and without it.  The caller closes the
            recorder.
        telemetry: a sim-clock
            :class:`~repro.telemetry.metrics.MetricsRegistry` (None:
            the zero-overhead null sink).  When attached, the run
            samples a per-tick time series, publishes the database and
            driver counters at the end, and the report gains a
            ``"telemetry"`` snapshot.  Deterministic: both engines
            produce identical snapshots; with None the report is
            byte-identical to a pre-telemetry run.
        profiler: a wall-clock
            :class:`~repro.telemetry.profiler.PhaseProfiler` (None: the
            no-op profiler).  The session both engines share times
            its set-up (``boot``, ``spawn``) and its tick stages
            (``advance``, ``recheck-detect``, ``batch-lookup``,
            ``associate``, ``compliance``) as phases, so either engine
            reports the same phase names.  Never affects the report.
        spans: a sim-clock
            :class:`~repro.telemetry.spans.SpanRecorder` (None: the
            zero-overhead null recorder).  When attached, every client
            re-check records a cache-lookup span tree and every mic
            registration an invalidation tree, and the report gains a
            ``"spans"`` table.  Deterministic: both engines emit
            byte-identical span sets; with None the report is
            byte-identical to a spans-free run.
    """
    if num_clients < 1:
        raise SimulationError(
            f"roaming needs >= 1 client, got {num_clients!r}"
        )
    if duration_us <= 0:
        raise SimulationError(
            f"roaming duration must be > 0, got {duration_us!r}"
        )
    if speed_mps <= 0:
        raise SimulationError(f"speed must be > 0, got {speed_mps!r}")
    if tick_us <= 0:
        raise SimulationError(f"tick must be > 0, got {tick_us!r}")
    if recheck_m is None:
        recheck_m = db.cache_resolution_m
    if recheck_m <= 0:
        raise SimulationError(f"recheck_m must be > 0, got {recheck_m!r}")
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    # Imported here: the session module imports this one.
    from repro.wsdb.session import DatabasePath, run_session

    return run_session(
        DatabasePath(db, recheck_m),
        engine,
        num_aps=num_aps,
        num_clients=num_clients,
        duration_us=duration_us,
        seed=seed,
        speed_mps=speed_mps,
        recheck_m=recheck_m,
        mic_events=mic_events,
        tick_us=tick_us,
        interference_radius_m=interference_radius_m,
        recorder=recorder,
        telemetry=telemetry,
        profiler=profiler,
        spans=spans,
    )
