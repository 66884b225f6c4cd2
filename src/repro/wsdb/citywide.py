"""City-scale WhiteFi: many APs sharing one metro through the wsdb.

The paper evaluates one BSS at a time; the regime that followed
("Optimizing City-Wide White-Fi Networks in TV White Spaces") is
hundreds of APs drawing on one metro spectrum pool.  This driver models
that workload on top of :class:`~repro.wsdb.service.WhiteSpaceDatabase`:

* Every AP is dropped at a coordinate and — instead of sensing — asks
  the database for the channels available *there*, then picks its
  ``(F, W)`` with the paper's own MCham machinery
  (:class:`~repro.core.assignment.ChannelAssigner`), seeing neighboring
  APs' load as per-channel airtime/AP counts.
* Each AP keeps a short ranked list of **backup channels** (the
  disconnection protocol's backup-channel idea, Section 4.3).  When a
  wireless microphone registers mid-session, the database invalidates
  the cached responses inside the protection zone and every covered AP
  on the mic's channel vacates, walking its backup list against a fresh
  database response — in ranked order, the way SIFT walks candidate
  channels — before falling back to a full MCham re-assignment.
* The run ends with a compliance re-query per AP (generating the
  repeated same-coordinate queries the response cache exists for) and a
  city-wide availability-disagreement summary
  (:func:`~repro.spectrum.variation.availability_disagreement` over the
  per-AP database responses — the Section 2.1 metric, metro-scale).

Everything derives from the master seed through labelled
:func:`~repro.sim.rng.stream_seed` streams, so a run is byte-identical
in any process — the contract the ``citywide`` run kind and
``ParallelRunner`` rely on.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from repro import constants
from repro.core.assignment import ChannelAssigner, SwitchReason
from repro.core.mcham import channel_preference_key
from repro.errors import NoChannelAvailableError, SimulationError
from repro.sim.rng import stream_seed
from repro.spectrum.airtime import AirtimeObservation
from repro.spectrum.channels import WhiteFiChannel
from repro.spectrum.spectrum_map import SpectrumMap
from repro.spectrum.variation import availability_disagreement
from repro.telemetry.metrics import NULL_TELEMETRY
from repro.traces.record import NULL_RECORDER
from repro.wsdb.index import circle_intersects_cells
from repro.wsdb.model import MicRegistration
from repro.wsdb.service import (
    AvailabilityService,
    WhiteSpaceDatabase,
    free_channels,
    quantize_cell,
    quantize_cells,
)

__all__ = [
    "CityAp",
    "MicEvent",
    "assign_ap",
    "boot_aps",
    "displace_covered_aps",
    "generate_mic_events",
    "record_mic",
    "record_requests",
    "simulate_citywide",
    "snapshot_assigned_aps",
]

#: Radius within which two APs contend (meters).  City-scale APs are
#: sectorized/low-power; a few km of mutual interference is the regime
#: the city-wide White-Fi literature optimizes.
DEFAULT_INTERFERENCE_RADIUS_M = 2_500.0

#: Busy-airtime fraction one neighboring AP contributes to each UHF
#: channel it spans (heavy-traffic assumption; fractions add and cap
#: at 1, where MCham's 1/(B+1) fair-share floor takes over).
AP_LOAD_FRACTION = 0.35

#: Throughput of one MCham score unit (an empty 5 MHz reference
#: channel): the prototype's 20 MHz rate scaled down by width.
REFERENCE_RATE_MBPS = constants.BASE_DATA_RATE_MBPS / (
    20.0 / constants.REFERENCE_WIDTH_MHZ
)

#: Backup channels each AP keeps ranked for mic-event recovery.
NUM_BACKUP_CHANNELS = 3


@dataclass
class CityAp:
    """One access point of the citywide deployment."""

    ap_id: int
    x_m: float
    y_m: float
    channel: WhiteFiChannel | None = None
    backups: tuple[WhiteFiChannel, ...] = ()


@dataclass(frozen=True)
class MicEvent:
    """One mid-session microphone registration."""

    t_us: float
    end_us: float
    x_m: float
    y_m: float
    uhf_index: int

    def registration(self) -> MicRegistration:
        """The wsdb registration protecting this event's session."""
        return MicRegistration.single_session(
            self.uhf_index, self.x_m, self.y_m, self.t_us, self.end_us
        )


def generate_mic_events(
    count: int,
    duration_us: float,
    extent_m: float,
    num_channels: int,
    seed: int,
) -> list[MicEvent]:
    """*count* random registrations in start-time order, seeded."""
    rng = random.Random(seed)
    # Sessions may outlive the measured window (a venue's booking does
    # not end with the experiment): mics still active at the horizon
    # keep shaping the end-of-session availability sweep.
    events = [
        MicEvent(
            t_us=(t := rng.uniform(0.0, duration_us)),
            end_us=t + rng.uniform(30e6, 300e6),
            x_m=rng.uniform(0.0, extent_m),
            y_m=rng.uniform(0.0, extent_m),
            uhf_index=rng.randrange(num_channels),
        )
        for _ in range(count)
    ]
    events.sort(key=lambda e: (e.t_us, e.uhf_index))
    return events


def _neighbor_observation(
    ap: CityAp,
    aps: list[CityAp],
    num_channels: int,
    interference_radius_m: float,
) -> AirtimeObservation:
    """*ap*'s per-channel view of neighboring APs' load.

    ``B_c`` counts assigned neighbors whose channel spans ``c``;
    ``A_c`` models each as a saturating contender contributing
    :data:`AP_LOAD_FRACTION` of airtime.
    """
    counts = [0] * num_channels
    for other in aps:
        if other is ap or other.channel is None:
            continue
        if (
            math.hypot(other.x_m - ap.x_m, other.y_m - ap.y_m)
            <= interference_radius_m
        ):
            for c in other.channel.spanned_indices:
                counts[c] += 1
    busy = tuple(min(1.0, AP_LOAD_FRACTION * n) for n in counts)
    return AirtimeObservation(busy, tuple(counts))


def assign_ap(
    ap: CityAp,
    db: AvailabilityService,
    aps: list[CityAp],
    t_us: float,
    interference_radius_m: float = DEFAULT_INTERFERENCE_RADIUS_M,
) -> bool:
    """Query the database at *ap*'s coordinate and pick (F, W) via MCham.

    Also refreshes the AP's ranked backup list.  Returns False (and
    leaves the AP unserved) when no candidate span is available.
    """
    free = free_channels(db, [(ap.x_m, ap.y_m)], t_us)[0]
    avail = SpectrumMap.from_free(free, db.metro.num_channels)
    return _assign(ap, avail, aps, interference_radius_m)


def _assign(
    ap: CityAp,
    avail: SpectrumMap,
    aps: list[CityAp],
    interference_radius_m: float,
) -> bool:
    """:func:`assign_ap` on an availability map already fetched."""
    num_channels = len(avail)
    obs = _neighbor_observation(ap, aps, num_channels, interference_radius_m)
    assigner = ChannelAssigner(num_channels)
    try:
        decision = assigner.evaluate(avail, obs, reason=SwitchReason.BOOT)
    except NoChannelAvailableError:
        ap.channel = None
        ap.backups = ()
        return False
    ap.channel = decision.channel
    ranked = sorted(
        (
            c
            for c in assigner.candidate_channels([avail])
            if c != decision.channel
        ),
        key=lambda c: channel_preference_key(assigner.score(c, obs, ()), c),
        reverse=True,
    )
    ap.backups = tuple(ranked[:NUM_BACKUP_CHANNELS])
    return True


def boot_aps(
    db: AvailabilityService,
    num_aps: int,
    seed: int,
    stream: str = "citywide-aps",
    interference_radius_m: float = DEFAULT_INTERFERENCE_RADIUS_M,
) -> list[CityAp]:
    """Place *num_aps* APs on the metro plane and assign their channels.

    Boot is a sequential greedy assignment (earlier APs are incumbent
    load for later ones — the deterministic stand-in for staggered
    power-on across a city).  Placement derives from the *stream*
    labelled child of *seed*, so different drivers (citywide, roaming)
    booting on the same master seed do not replay one another's draws.
    """
    if num_aps < 1:
        raise SimulationError(
            f"boot_aps needs num_aps >= 1, got {num_aps!r}"
        )
    extent_m = db.metro.extent_m
    placement = random.Random(stream_seed(seed, stream))
    aps = [
        CityAp(
            i,
            placement.uniform(0.0, extent_m),
            placement.uniform(0.0, extent_m),
        )
        for i in range(num_aps)
    ]
    # The availability queries depend on no assignment, so the whole
    # boot asks them as one batch (one index pass for all its misses),
    # with the answers, counters and cache state of one query per AP.
    num_channels = db.metro.num_channels
    answers = free_channels(db, [(ap.x_m, ap.y_m) for ap in aps], 0.0)
    for ap, free in zip(aps, answers):
        avail = SpectrumMap.from_free(free, num_channels)
        _assign(ap, avail, aps, interference_radius_m)
    return aps


def snapshot_assigned_aps(
    aps: list[CityAp],
) -> tuple[
    list[tuple[CityAp, frozenset[int]]], dict[int, frozenset[int]]
]:
    """(live list, spans by ap_id) of the APs currently holding a channel.

    AP channels only change on mic events, so the mobility drivers
    snapshot once and rebuild only after an event fires; both the
    roaming and querystorm tick loops compare association candidates
    against exactly this view.
    """
    live = [
        (ap, frozenset(ap.channel.spanned_indices))
        for ap in aps
        if ap.channel is not None
    ]
    return live, {ap.ap_id: spans for ap, spans in live}


def record_mic(
    recorder: Any,
    event: MicEvent,
    index: int,
    resolution_m: float,
    notified: Iterable[int] = (),
) -> None:
    """Emit registration *index*'s ``mic`` trace event, then one
    ``push`` event per *notified* device, stamped with the mic's cell
    at *resolution_m*."""
    cell = quantize_cell(event.x_m, event.y_m, resolution_m)
    channels = (event.uhf_index,)
    recorder.emit(
        "mic",
        event.t_us,
        subject=index,
        cell=cell,
        channels=channels,
        x=event.x_m,
        y=event.y_m,
        aux=event.uhf_index,
    )
    for device in notified:
        recorder.emit(
            "push", event.t_us, subject=device, cell=cell,
            channels=channels, aux=index,
        )


def record_requests(
    recorder: Any,
    kind: str,
    t_us: float,
    subjects: Iterable[int],
    xy: Any,
    answers: np.ndarray,
    admitted: int,
    service: AvailabilityService,
) -> None:
    """Emit one ``query``/``recheck`` trace event per request of a burst.

    *xy* holds the (n, 2) request coordinates and *answers* their
    response ids into *service*'s table (``-1`` refused, recorded as
    no channels); the first *admitted* requests were admitted.  Cells
    follow *service*'s ``cache_resolution_m``, quantized once per
    burst.
    """
    xy = np.asarray(xy, dtype=np.float64).reshape(-1, 2)
    cells = quantize_cells(xy, service.cache_resolution_m).tolist()
    tuples = service.responses.tuples
    for i, (subject, (x_m, y_m), cell, rid) in enumerate(
        zip(subjects, xy.tolist(), cells, answers.tolist())
    ):
        recorder.emit(
            kind,
            t_us,
            subject=subject,
            cell=cell,
            channels=None if rid < 0 else tuples[rid],
            x=x_m,
            y=y_m,
            aux=int(i < admitted),
        )


def displace_covered_aps(
    db: AvailabilityService,
    aps: list[CityAp],
    event: MicEvent,
    registration: MicRegistration,
    interference_radius_m: float = DEFAULT_INTERFERENCE_RADIUS_M,
) -> tuple[int, int, int, int]:
    """Vacate and recover the APs whose response *event* invalidated.

    Coverage is protocol-level — the zone touches the AP's response
    cell (:func:`~repro.wsdb.index.circle_intersects_cells`, the
    geometry invalidation uses), not point containment: an AP just
    outside the zone whose cell the zone clips receives the denying
    cell response too, and must move with the rest.  Coverage is one
    array pass over every AP's cell; the displaced APs then query and
    re-plan one at a time, in AP order.  Returns
    ``(displaced, backup_recoveries, full_reassignments, outages)``.
    """
    displaced = backup_recoveries = full_reassignments = outages = 0
    res = db.cache_resolution_m
    cells = quantize_cells([(ap.x_m, ap.y_m) for ap in aps], res)
    covered = circle_intersects_cells(
        registration.x_m,
        registration.y_m,
        registration.radius_m,
        cells[:, 0],
        cells[:, 1],
        res,
    )
    for ap, touched in zip(aps, covered.tolist()):
        if (
            not touched
            or ap.channel is None
            or event.uhf_index not in ap.channel.spanned_indices
        ):
            continue
        displaced += 1
        # Backup-channel discovery: walk the ranked list against a
        # fresh (post-invalidation) response before re-planning.
        free = set(free_channels(db, [(ap.x_m, ap.y_m)], event.t_us)[0])
        backup = next(
            (
                b
                for b in ap.backups
                if all(i in free for i in b.spanned_indices)
            ),
            None,
        )
        if backup is not None:
            ap.channel = backup
            ap.backups = tuple(b for b in ap.backups if b != backup)
            backup_recoveries += 1
        elif assign_ap(ap, db, aps, event.t_us, interference_radius_m):
            full_reassignments += 1
        else:
            outages += 1
    return displaced, backup_recoveries, full_reassignments, outages


def simulate_citywide(
    db: WhiteSpaceDatabase,
    num_aps: int,
    duration_us: float,
    seed: int,
    mic_events: int = 0,
    interference_radius_m: float = DEFAULT_INTERFERENCE_RADIUS_M,
    recorder: Any = None,
    telemetry: Any = None,
) -> dict[str, Any]:
    """Run one citywide session; returns a plain-data report.

    The report is JSON-plain throughout (the ``citywide`` run kind's
    probe routes it into an ``ExperimentResult`` unchanged).  Pass a
    :class:`~repro.traces.record.TraceRecorder` as ``recorder`` to
    stream the run's mic registrations and end-of-session sweep
    queries; recording observes only, so the report is bit-identical
    with and without it.  Pass a sim-clock ``MetricsRegistry`` as
    ``telemetry`` to publish the database and deployment counters and
    add a ``"telemetry"`` snapshot to the report (the citywide session
    is event-driven — no tick loop — so it publishes counters and
    gauges, not a per-tick series).
    """
    if duration_us <= 0:
        raise SimulationError(
            f"citywide duration must be > 0, got {duration_us!r}"
        )
    if recorder is None:
        recorder = NULL_RECORDER
    recording = recorder.enabled
    tel = NULL_TELEMETRY if telemetry is None else telemetry
    extent_m = db.metro.extent_m
    aps = boot_aps(db, num_aps, seed, "citywide-aps", interference_radius_m)

    events = generate_mic_events(
        mic_events,
        duration_us,
        extent_m,
        db.metro.num_channels,
        stream_seed(seed, "citywide-mics"),
    )
    displaced = backup_recoveries = full_reassignments = outages = 0
    for index, event in enumerate(events):
        registration = event.registration()
        db.register_mic(registration)
        if recording:
            record_mic(recorder, event, index, db.cache_resolution_m)
        d, b, r, o = displace_covered_aps(
            db, aps, event, registration, interference_radius_m
        )
        displaced += d
        backup_recoveries += b
        full_reassignments += r
        outages += o

    # End-of-session sweep: one compliance re-query per AP — the
    # repeated same-coordinate queries the response cache is for — with
    # both the disagreement map and the compliance free-set derived
    # from that single response (querying twice at the same t would
    # double-count stats.queries and inflate the reported hit rate).
    num_channels = db.metro.num_channels
    points = [(ap.x_m, ap.y_m) for ap in aps]
    ids = db.response_ids_in_cells(
        quantize_cells(points, db.cache_resolution_m), duration_us
    ).ids
    final_responses = [db.responses.tuples[i] for i in ids.tolist()]
    if recording:
        record_requests(
            recorder, "query", duration_us, [ap.ap_id for ap in aps],
            points, ids, len(aps), db,
        )
    final_maps = [
        SpectrumMap.from_free(free, num_channels) for free in final_responses
    ]
    noncompliant = 0
    per_ap: list[tuple[int, int | None, float | None, float]] = []
    total_mbps = 0.0
    width_counts: dict[float, int] = {}
    for ap, response in zip(aps, final_responses):
        if ap.channel is None:
            per_ap.append((ap.ap_id, None, None, 0.0))
            continue
        free = set(response)
        if not all(i in free for i in ap.channel.spanned_indices):
            noncompliant += 1
        obs = _neighbor_observation(
            ap, aps, db.metro.num_channels, interference_radius_m
        )
        score = ChannelAssigner(db.metro.num_channels).score(
            ap.channel, obs, ()
        )
        mbps = score * REFERENCE_RATE_MBPS
        total_mbps += mbps
        width_counts[ap.channel.width_mhz] = (
            width_counts.get(ap.channel.width_mhz, 0) + 1
        )
        per_ap.append(
            (ap.ap_id, ap.channel.center_index, ap.channel.width_mhz, mbps)
        )

    assigned = sum(1 for ap in aps if ap.channel is not None)
    assigned_mbps = [m for _, center, _, m in per_ap if center is not None]
    if tel.enabled:
        db.publish_metrics(tel)
        tel.counter("mic_events").inc(len(events))
        tel.counter("displaced_aps").inc(displaced)
        tel.counter("backup_recoveries").inc(backup_recoveries)
        tel.counter("full_reassignments").inc(full_reassignments)
        tel.counter("outages").inc(outages)
        tel.counter("noncompliant_aps").inc(noncompliant)
        tel.gauge("assigned_aps").set(float(assigned))
        tel.gauge("aggregate_mbps").set(total_mbps)
    report = {
        "num_aps": num_aps,
        "extent_m": extent_m,
        "duration_us": duration_us,
        "assigned_aps": assigned,
        "unserved_aps": num_aps - assigned,
        "aggregate_mbps": total_mbps,
        "mean_ap_mbps": (total_mbps / assigned) if assigned else 0.0,
        "min_ap_mbps": min(assigned_mbps) if assigned_mbps else 0.0,
        "width_counts": tuple(sorted(width_counts.items())),
        "availability_disagreement": availability_disagreement(final_maps),
        "mic_events": len(events),
        "displaced_aps": displaced,
        "backup_recoveries": backup_recoveries,
        "full_reassignments": full_reassignments,
        "outages": outages,
        "noncompliant_aps": noncompliant,
        "per_ap": tuple(per_ap),
        "db": db.stats.as_dict(),
    }
    if tel.enabled:
        report["telemetry"] = tel.snapshot()
    return report
