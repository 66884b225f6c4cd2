"""Mobile white-space clients roaming a metro: the 100 m re-check rule.

The FCC regime the wsdb models is built around *portable* devices: a
white space device that moves must re-query the database after
traveling ~100 m (and periodically even when parked).  This driver
models that workload — the one a per-coordinate response cache serves
worst and the cell-granular protocol
(:meth:`~repro.wsdb.service.WhiteSpaceDatabase.channels_in_cell`) was
built for:

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
``ParallelRunner`` rely on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SimulationError
from repro.sim.rng import stream_seed
from repro.telemetry.metrics import NULL_TELEMETRY
from repro.telemetry.spans import NULL_SPANS, lookup_steps
from repro.traces.record import NULL_RECORDER
from repro.wsdb.citywide import (
    DEFAULT_INTERFERENCE_RADIUS_M,
    CityAp,
    MicEvent,
    boot_aps,
    displace_covered_aps,
    generate_mic_events,
    snapshot_assigned_aps,
)
from repro.wsdb.service import WhiteSpaceDatabase, quantize_cell, ttl_bucket

__all__ = [
    "RoamingClient",
    "advance_client",
    "advance_position",
    "associate_nearest",
    "in_violation",
    "simulate_roaming",
    "spawn_clients",
]

#: The mobile-engine implementations the roaming and querystorm
#: drivers dispatch between.  "scalar" is the reference per-client
#: loop below; "vector" is the columnar numpy engine
#: (:mod:`repro.wsdb.vector`), bit-identical to it by construction.
ENGINES = ("scalar", "vector")

#: Default client speed (meters/second): ~50 km/h, a metro vehicle.
DEFAULT_SPEED_MPS = 14.0

#: Default simulation tick (microseconds).  At the default speed a
#: client moves 14 m per tick — fine-grained against the 100 m rule.
DEFAULT_TICK_US = 1_000_000.0


@dataclass
class RoamingClient:
    """One mobile client: a position, a path, and a cached response."""

    client_id: int
    x_m: float
    y_m: float
    waypoint: tuple[float, float]
    # Required, not defaulted: an implicit `random.Random()` fallback
    # would seed from OS entropy and break run reproducibility.
    rng: random.Random = field(repr=False)
    known_free: frozenset[int] = frozenset()
    last_cell: tuple[int, int] | None = None
    last_bucket: int = -1
    ap: CityAp | None = None


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
    # running-min association reproduces this ordering bit-for-bit
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
    rng: random.Random,
    distance_m: float,
    extent_m: float,
) -> tuple[float, float, float, float]:
    """Advance one waypoint walker by *distance_m*; returns (x, y, wx, wy).

    The pure kinematics core of :func:`advance_client`, shared verbatim
    with the vectorized engine's waypoint-crossing fallback so both
    engines draw the same waypoints from the same per-client streams
    and land on bit-identical coordinates.  Leg lengths use
    ``sqrt(dx*dx + dy*dy)`` — correctly-rounded IEEE-754 throughout —
    so numpy's elementwise fast path for non-crossing walkers computes
    the exact same floats.
    """
    remaining = distance_m
    while remaining > 0.0:
        dx, dy = wx - x_m, wy - y_m
        leg = math.sqrt(dx * dx + dy * dy)
        if leg <= remaining:
            x_m, y_m = wx, wy
            remaining -= leg
            new_wx = rng.uniform(0.0, extent_m)
            new_wy = rng.uniform(0.0, extent_m)
            if leg == 0.0 and (new_wx, new_wy) == (wx, wy):
                # Degenerate double-draw of the same point; give up the
                # remainder of this tick rather than spin.
                return x_m, y_m, new_wx, new_wy
            wx, wy = new_wx, new_wy
        else:
            x_m += dx / leg * remaining
            y_m += dy / leg * remaining
            remaining = 0.0
    return x_m, y_m, wx, wy


def advance_client(
    client: RoamingClient, distance_m: float, extent_m: float
) -> None:
    """Move *client* along its waypoint path by *distance_m* meters.

    Public driver plumbing: the roaming and querystorm drivers both
    step their fleets through this, so path kinematics stay identical
    across kinds by construction.
    """
    wx, wy = client.waypoint
    client.x_m, client.y_m, wx, wy = advance_position(
        client.x_m, client.y_m, wx, wy, client.rng, distance_m, extent_m
    )
    client.waypoint = (wx, wy)


def spawn_clients(
    num_clients: int, seed: int, stream: str, extent_m: float
) -> list[RoamingClient]:
    """The seeded mobile fleet both engines start from.

    Each client draws its start position and first waypoint from its
    own labelled child stream, so fleet construction is byte-identical
    across engines, processes, and client counts (client *i*'s path
    never depends on how many peers exist).
    """
    clients: list[RoamingClient] = []
    for i in range(num_clients):
        rng = random.Random(stream_seed(seed, f"{stream}-{i}"))
        clients.append(
            RoamingClient(
                client_id=i,
                x_m=rng.uniform(0.0, extent_m),
                y_m=rng.uniform(0.0, extent_m),
                waypoint=(rng.uniform(0.0, extent_m), rng.uniform(0.0, extent_m)),
                rng=rng,
            )
        )
    return clients


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
        engine: "scalar" (the reference per-client loop here) or
            "vector" (the columnar numpy engine,
            :mod:`repro.wsdb.vector`).  Both produce bit-identical
            reports; "vector" is the one that scales to millions of
            clients.
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
            no-op profiler).  Phase instrumentation lives in the vector
            engine's batched tick stages; the scalar reference loop
            accepts the argument for signature parity but does not
            profile.  Never affects the report.
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
    if engine == "vector":
        # Imported here: repro.wsdb.vector imports this module.
        from repro.wsdb.vector import simulate_roaming_vector

        return simulate_roaming_vector(
            db,
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

    if recorder is None:
        recorder = NULL_RECORDER
    recording = recorder.enabled
    tel = NULL_TELEMETRY if telemetry is None else telemetry
    tel_on = tel.enabled
    sp = NULL_SPANS if spans is None else spans
    sp_on = sp.enabled
    extent_m = db.metro.extent_m
    aps = boot_aps(db, num_aps, seed, "roaming-aps", interference_radius_m)
    clients = spawn_clients(num_clients, seed, "roaming-client", extent_m)

    events = generate_mic_events(
        mic_events,
        duration_us,
        extent_m,
        db.metro.num_channels,
        stream_seed(seed, "roaming-mics"),
    )
    next_event = 0
    displaced = backup_recoveries = full_reassignments = outages = 0

    requeries = [0] * num_clients
    handoffs = [0] * num_clients
    vacations = [0] * num_clients
    connected = [0] * num_clients
    violations = [0] * num_clients
    disconnected_ticks = 0
    total_requeries = 0
    total_handoffs = 0

    def register_event(event: MicEvent, index: int) -> None:
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
            recorder.emit(
                "mic",
                event.t_us,
                subject=index,
                cell=quantize_cell(
                    event.x_m, event.y_m, db.cache_resolution_m
                ),
                channels=(event.uhf_index,),
                x=event.x_m,
                y=event.y_m,
                aux=event.uhf_index,
            )
        d, b, r, o = displace_covered_aps(
            db, aps, event, registration, interference_radius_m
        )
        displaced += d
        backup_recoveries += b
        full_reassignments += r
        outages += o

    live_aps, spans_by_id = snapshot_assigned_aps(aps)

    step_m = speed_mps * tick_us / 1e6
    ticks = int(duration_us // tick_us)
    viol_open = [False] * num_clients
    for k in range(ticks + 1):
        t_us = k * tick_us
        tick_violating = 0
        # Registrations whose session starts by this tick go live:
        # cached responses inside the zone are invalidated and covered
        # APs walk their backups, exactly as in the citywide driver.
        fired = False
        while next_event < len(events) and events[next_event].t_us <= t_us:
            register_event(events[next_event], next_event)
            next_event += 1
            fired = True
        if fired:
            live_aps, spans_by_id = snapshot_assigned_aps(aps)

        for client in clients:
            if k > 0:
                advance_client(client, step_m, extent_m)
            # The re-check rule: query only on crossing a
            # quantization-square boundary or on TTL expiry — never
            # merely because time passed within a valid response.
            cell = quantize_cell(client.x_m, client.y_m, recheck_m)
            bucket = ttl_bucket(t_us, db.ttl_us)
            if cell != client.last_cell or bucket != client.last_bucket:
                response = db.channels_at(client.x_m, client.y_m, t_us)
                if sp_on:
                    hit, scanned = db.last_outcomes[0]
                    sp.record_tree(
                        "request",
                        "roam",
                        client.client_id,
                        t_us,
                        "db",
                        [lookup_steps(hit, scanned, "db")],
                    )
                client.known_free = frozenset(response)
                client.last_cell = cell
                client.last_bucket = bucket
                requeries[client.client_id] += 1
                total_requeries += 1
                if recording:
                    recorder.emit(
                        "recheck",
                        t_us,
                        subject=client.client_id,
                        cell=quantize_cell(
                            client.x_m, client.y_m, db.cache_resolution_m
                        ),
                        channels=response,
                        x=client.x_m,
                        y=client.y_m,
                        aux=1,
                    )

            # Association: nearest assigned AP whose channel the
            # client's response permits here.  A previously-associated
            # AP whose channel the response now denies forces a
            # channel vacation (the path entered a protection zone).
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
            # A violation means the client transmitted on a protected
            # channel between re-checks.
            violating = in_violation(
                db.metro,
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
            tel.sample_tick(
                t_us,
                queries=db.stats.queries,
                cache_hits=db.stats.cache_hits,
                requeries=total_requeries,
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

    # When duration_us is not a tick multiple, events can start after
    # the last evaluated tick; register them anyway so the database,
    # the displacement accounting, and the reported event count agree
    # with simulate_citywide's process-every-event semantics.
    while next_event < len(events):
        register_event(events[next_event], next_event)
        next_event += 1

    connected_ticks = sum(connected)
    violation_ticks = sum(violations)
    client_ticks = num_clients * (ticks + 1)
    if tel_on:
        db.publish_metrics(tel)
        tel.counter("requeries").inc(total_requeries)
        tel.counter("handoffs").inc(total_handoffs)
        tel.counter("vacations").inc(sum(vacations))
        tel.counter("violation_ticks").inc(violation_ticks)
        tel.counter("connected_ticks").inc(connected_ticks)
        tel.counter("disconnected_ticks").inc(disconnected_ticks)
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
        "requeries_per_client": sum(requeries) / num_clients,
        "handoffs": sum(handoffs),
        "vacations": sum(vacations),
        "connected_ticks": connected_ticks,
        "disconnected_ticks": disconnected_ticks,
        "connected_fraction": connected_ticks / client_ticks,
        "violation_ticks": violation_ticks,
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
        "db": db.stats.as_dict(),
    }
    if tel_on:
        report["telemetry"] = tel.snapshot()
    if sp_on:
        report["spans"] = sp.snapshot()
    return report
