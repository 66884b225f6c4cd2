"""Layer microbenchmarks: ns per cell or request of the query layers.

The end-to-end benchmark (``perfbench/``) says how fast a workload runs;
this one isolates the service tier's query layers:

* ``WhiteSpaceDatabase.response_ids_in_cells`` — the database's batch
  cell lookup, the primitive every query path rides — per cell at the
  hit rates that bracket the workloads (0%: every cell a miss, so the
  index's miss kernel does the work; 99%: the cache-hit path with the
  odd miss; 100%: the hit path alone) and at batch sizes 1, 8, 64 and
  512, on the ``roam-sparse``-shaped metro (a 20 km plane, one TV site
  on each of channels 12-29, six registered microphones, default
  service parameters).
* ``ShardRouter.response_ids_in_cells`` — per cell on 512 scattered
  cells of the 16-shard, 3 km ``storm`` metro, each repeat in a fresh
  TTL bucket (so every cell's first touch misses), with the number of
  shards the batch touched (``ShardRouter.shard_calls``).
* ``BatchFrontend.query_batch`` — per request on a storm-sized burst
  (3,000 uniform points, the ``storm`` workload's per-tick load) over
  the same 16-shard metro, under ``reject`` and under ``serve-stale``,
  with a token bucket that admits 2,400 of each burst.  Each repeat
  sends one untimed burst to warm the caches and the stale store, then
  times a second burst one simulated second later in the same TTL
  bucket; the row records the shed and stale-served fractions of the
  timed bursts.  Each policy is timed with no span recorder, with a
  ``head-100`` :class:`~repro.telemetry.spans.SpanRecorder` and with
  an unsampled one (every request labelled ``("storm", sequence)``);
  a span row less the no-span row of its policy is the cost of a
  ``SpanRecorder`` request.
* ``synthetic_storm`` — per point, generating STORM_TICKS ticks of
  3,000 points each (the ``storm`` workload's offered load at its
  one-second tick) on the 3 km plane, from a seeded ``random.Random``.
* ``VectorFleet.associate_and_score`` — per client on the
  ``roam-dense`` metro (3 km, one TV site on each of channels 12-29)
  with 32,000 clients walking at the default 14 m/s, 12, 48 and 192
  booted APs, for three ticks after three untimed ones: a steady tick;
  one after ``set_snapshot`` re-applies the same live list (a no-op);
  and one after a snapshot in which one AP changed channel (the
  repeats alternate between the two lists).  The snapshot rows time
  ``set_snapshot`` and the association together.  Each repeat advances
  the fleet one tick and commits its re-checks before the timed calls;
  each row records the share of clients whose motion slack had run out
  before the association and the share it re-evaluated (equal, since
  class changes, waypoint crossings and snapshot changes all act
  through the slack).
* ``VectorFleet.advance`` — per client per tick for the fleets of
  ``roam-sparse`` (2,000 clients on 20 km), ``storm`` (3,000 on 3 km)
  and ``roam-dense`` (32,000 on 3 km), walking at the default 14 m/s,
  timed after three untimed ticks.

Every row is timed over at least five repeats and records the median
and minimum wall ns per cell or request (the minimum is the
least-disturbed figure on a shared host) and the median CPU ns.  Each
repeat runs in a fresh TTL bucket, so its misses are real misses; the
bucket change (and the purge it triggers) happens before the clock
starts.

Each invocation appends one host-stamped entry to the trajectory log
``BENCH_layers.json`` at the repo root.  Under ``WHITEFI_BENCH_SMOKE``
the cell counts shrink and the entry goes to the gitignored
``benchmarks/results/BENCH_layers-smoke.json`` instead.

Run it with ``make bench-layers``.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import random
import statistics
import time

import numpy as np

import repro
from repro.telemetry.spans import SpanRecorder
from repro.wsdb.citywide import boot_aps, snapshot_assigned_aps
from repro.wsdb.cluster.frontend import SHED_POLICIES, BatchFrontend
from repro.wsdb.cluster.querystorm import synthetic_storm
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.mobility import DEFAULT_SPEED_MPS, DEFAULT_TICK_US, spawn_clients
from repro.wsdb.model import MicRegistration, generate_metro
from repro.wsdb.service import ResponseTable, WhiteSpaceDatabase, ttl_bucket
from repro.wsdb.vector import VectorFleet

from _runner import smoke_mode

SMOKE = smoke_mode()
REPO_ROOT = pathlib.Path(__file__).parent.parent
RESULTS_DIR = pathlib.Path(__file__).parent / "results"

SEED = 2009
EXTENT_M = 20_000.0
OCCUPIED = range(12, 30)
MICS = 6
BATCH_SIZES = (1, 8, 64, 512)
REPEATS = 5
#: Cells timed per repeat, by hit rate (multiples of every batch size).
#: The 100% rows isolate the hit path: no index kernel call at all.
CELLS = (
    {0.0: 512, 0.99: 5_120, 1.0: 5_120}
    if SMOKE
    else {0.0: 4_096, 0.99: 51_200, 1.0: 51_200}
)
#: Cached cells the 99% rows draw their hits from.
WARM_CELLS = 1_024
#: The router and frontend rows: the storm workload's metro and shards.
STORM_EXTENT_M = 3_000.0
STORM_SHARDS = 16
ROUTER_CELLS = 512
#: The frontend rows' burst, and the tokens the bucket holds (and
#: refills per simulated second): a fifth of each burst is shed.
STORM_BURST = 300 if SMOKE else 3_000
STORM_TOKENS = STORM_BURST * 4 // 5
#: The storm-generation row: ticks per repeat, of 3,000 points each.
STORM_TICKS = 20 if SMOKE else 200
STORM_TICK_POINTS = 3_000
#: Span recorders the frontend rows run under: none, sampled, unsampled.
SPAN_SAMPLES = (None, "head-100", "off")
#: The association rows: the roam-dense fleet at three AP densities,
#: and the ticks timed at each.
FLEET_EXTENT_M = 3_000.0
FLEET_CLIENTS = 2_000 if SMOKE else 32_000
FLEET_APS = (12, 48, 192)
FLEET_TICKS = ("steady", "identical-snapshot", "one-ap-changed")
WARM_TICKS = 3
#: The advance rows: (clients, plane edge) of the roam-sparse, storm
#: and roam-dense fleets.
ADVANCE_FLEETS = (
    ((200, 20_000.0), (300, 3_000.0), (2_000, 3_000.0))
    if SMOKE
    else ((2_000, 20_000.0), (3_000, 3_000.0), (32_000, 3_000.0))
)


def trajectory_log(smoke: bool) -> pathlib.Path:
    """The checked-in ``BENCH_layers.json``, or its gitignored smoke twin."""
    if smoke:
        return RESULTS_DIR / "BENCH_layers-smoke.json"
    return REPO_ROOT / "BENCH_layers.json"


def sparse_db() -> WhiteSpaceDatabase:
    """The roam-sparse-shaped database: TV sites plus six live mics."""
    metro = generate_metro(
        OCCUPIED, seed=SEED, extent_m=EXTENT_M, sites_per_channel=(1, 1)
    )
    db = WhiteSpaceDatabase(metro)
    rng = random.Random(SEED)
    for _ in range(MICS):
        db.register_mic(
            MicRegistration.single_session(
                rng.choice(OCCUPIED),
                rng.uniform(0.0, EXTENT_M),
                rng.uniform(0.0, EXTENT_M),
                0.0,
                1e15,
            )
        )
    return db


def cell_sequence(
    db: WhiteSpaceDatabase, hit_rate: float, rng: random.Random
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """(warm cells, timed cells): every 100th timed cell is fresh at 99%,
    every one at 0%, none at 100%; fresh cells never repeat within a
    repeat."""
    side = int(EXTENT_M // db.cache_resolution_m)
    plane = [(qx, qy) for qx in range(side) for qy in range(side)]
    rng.shuffle(plane)
    n = CELLS[hit_rate]
    if hit_rate == 0.0:
        return [], plane[:n]
    warm, fresh = plane[:WARM_CELLS], iter(plane[WARM_CELLS:])
    return warm, [
        next(fresh) if i % 100 == 99 and hit_rate < 1.0 else warm[i % WARM_CELLS]
        for i in range(n)
    ]


def as_cells(cells: list[tuple[int, int]]) -> np.ndarray:
    """``(qx, qy)`` pairs as the (n, 2) int64 array the primitive takes."""
    return np.array(cells, dtype=np.int64).reshape(-1, 2)


def storm_router() -> ShardRouter:
    """The storm workload's 16-shard, 3 km cluster."""
    metro = generate_metro(
        OCCUPIED, seed=SEED, extent_m=STORM_EXTENT_M, sites_per_channel=(1, 1)
    )
    return ShardRouter(metro, STORM_SHARDS)


def measure_row(hit_rate: float, batch: int) -> dict:
    """One (hit rate, batch size) database row over REPEATS fresh TTL
    buckets."""
    db = sparse_db()
    rng = random.Random(f"{SEED}-{hit_rate}-{batch}")
    wall_ns, cpu_ns, hits = [], [], []
    for repeat in range(REPEATS):
        t_us = (repeat + 1) * db.ttl_us
        warm, cells = cell_sequence(db, hit_rate, rng)
        # New bucket: purge + warm-up.
        db.response_ids_in_cells(as_cells(warm), t_us)
        batches = [
            as_cells(cells[i : i + batch]) for i in range(0, len(cells), batch)
        ]
        hits_before = db.stats.cache_hits
        wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
        for chunk in batches:
            db.response_ids_in_cells(chunk, t_us)
        wall_ns.append((time.perf_counter_ns() - wall0) / len(cells))
        cpu_ns.append((time.process_time_ns() - cpu0) / len(cells))
        hits.append((db.stats.cache_hits - hits_before) / len(cells))
    return {
        "layer": "WhiteSpaceDatabase.response_ids_in_cells",
        "hit_rate": hit_rate,
        "batch": batch,
        "cells": len(cells),
        "repeats": REPEATS,
        "measured_hit_rate": statistics.median(hits),
        "ns_per_cell_median": statistics.median(wall_ns),
        "ns_per_cell_min": min(wall_ns),
        "cpu_ns_per_cell_median": statistics.median(cpu_ns),
        "ns_per_cell": wall_ns,
    }


def router_row() -> dict:
    """``ShardRouter.response_ids_in_cells`` on scattered storm-metro cells.

    Each repeat asks ROUTER_CELLS seeded points' cells as one batch in
    a fresh TTL bucket; ``shard_calls`` is the router's count of the
    shards the batch touched.
    """
    router = storm_router()
    rng = random.Random(f"{SEED}-router")
    wall_ns, cpu_ns, hits, shard_calls = [], [], [], []
    for repeat in range(REPEATS):
        t_us = (repeat + 1) * router.ttl_us
        router.response_ids_in_cells(as_cells([(0, 0)]), t_us)  # purge
        cells = as_cells(
            [
                router.cell_of(
                    rng.uniform(0.0, STORM_EXTENT_M),
                    rng.uniform(0.0, STORM_EXTENT_M),
                )
                for _ in range(ROUTER_CELLS)
            ]
        )
        hits_before = router.aggregate_stats().cache_hits
        calls = router.shard_calls
        wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
        router.response_ids_in_cells(cells, t_us)
        wall_ns.append((time.perf_counter_ns() - wall0) / len(cells))
        cpu_ns.append((time.process_time_ns() - cpu0) / len(cells))
        hits.append((router.aggregate_stats().cache_hits - hits_before) / len(cells))
        shard_calls.append(router.shard_calls - calls)
    return {
        "layer": "ShardRouter.response_ids_in_cells",
        "shards": STORM_SHARDS,
        "extent_m": STORM_EXTENT_M,
        "batch": ROUTER_CELLS,
        "cells": ROUTER_CELLS,
        "repeats": REPEATS,
        "shard_calls": max(shard_calls),
        "measured_hit_rate": statistics.median(hits),
        "ns_per_cell_median": statistics.median(wall_ns),
        "ns_per_cell_min": min(wall_ns),
        "cpu_ns_per_cell_median": statistics.median(cpu_ns),
        "ns_per_cell": wall_ns,
    }


def frontend_row(policy: str, sample: str | None = None) -> dict:
    """``BatchFrontend.query_batch`` on storm bursts under *policy*.

    Each repeat, in a fresh TTL bucket, sends one untimed burst (which
    drains the token bucket and warms the shard caches and the stale
    store), then times a second burst one simulated second later, when
    the bucket has refilled STORM_TOKENS tokens.  With a *sample*, a
    :class:`SpanRecorder` of that ``span_sample`` value records every
    burst, its requests numbered in sequence.
    """
    router = storm_router()
    spans = None if sample is None else SpanRecorder(sample)
    frontend = BatchFrontend(
        router,
        rate_limit_qps=float(STORM_TOKENS),
        burst_size=float(STORM_TOKENS),
        policy=policy,
        spans=spans,
    )

    def refs():
        # Requests are numbered by the frontend's running request count.
        if spans is None:
            return None
        start = frontend.stats.requests
        return "storm", np.arange(start, start + STORM_BURST)

    rng = random.Random(f"{SEED}-frontend-{policy}")
    stats = frontend.stats
    wall_ns, cpu_ns, shed, stale = [], [], [], []
    for repeat in range(REPEATS):
        t_us = (repeat + 1) * router.ttl_us
        warm, burst = (
            np.array(
                [
                    (rng.uniform(0.0, STORM_EXTENT_M), rng.uniform(0.0, STORM_EXTENT_M))
                    for _ in range(STORM_BURST)
                ]
            )
            for _ in range(2)
        )
        frontend.query_batch(warm, t_us, span_refs=refs())
        shed0, stale0 = stats.shed, stats.served_stale
        labels = refs()
        wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
        frontend.query_batch(burst, t_us + 1e6, span_refs=labels)
        wall_ns.append((time.perf_counter_ns() - wall0) / STORM_BURST)
        cpu_ns.append((time.process_time_ns() - cpu0) / STORM_BURST)
        shed.append((stats.shed - shed0) / STORM_BURST)
        stale.append((stats.served_stale - stale0) / STORM_BURST)
    return {
        "layer": "BatchFrontend.query_batch",
        "policy": policy,
        "spans": "none" if sample is None else sample,
        "traces_kept": 0 if spans is None else spans.snapshot()["traces"],
        "shards": STORM_SHARDS,
        "extent_m": STORM_EXTENT_M,
        "batch": STORM_BURST,
        "requests": STORM_BURST,
        "tokens": STORM_TOKENS,
        "repeats": REPEATS,
        "shed_frac": statistics.median(shed),
        "stale_frac": statistics.median(stale),
        "ns_per_request_median": statistics.median(wall_ns),
        "ns_per_request_min": min(wall_ns),
        "cpu_ns_per_request_median": statistics.median(cpu_ns),
        "ns_per_request": wall_ns,
    }


def storm_row() -> dict:
    """``synthetic_storm`` per point: STORM_TICKS one-second ticks of
    STORM_TICK_POINTS points each, drained as the session drains them."""
    wall_ns, cpu_ns = [], []
    points = STORM_TICKS * STORM_TICK_POINTS
    for repeat in range(REPEATS):
        rng = random.Random(f"{SEED}-storm-{repeat}")
        blocks = synthetic_storm(
            float(STORM_TICK_POINTS), DEFAULT_TICK_US, STORM_TICKS - 1,
            STORM_EXTENT_M, rng,
        )
        wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
        drawn = sum(len(xy) for _, xy in blocks)
        wall_ns.append((time.perf_counter_ns() - wall0) / points)
        cpu_ns.append((time.process_time_ns() - cpu0) / points)
        assert drawn == points
    return {
        "layer": "synthetic_storm",
        "tick_points": STORM_TICK_POINTS,
        "ticks": STORM_TICKS,
        "extent_m": STORM_EXTENT_M,
        "repeats": REPEATS,
        "ns_per_point_median": statistics.median(wall_ns),
        "ns_per_point_min": min(wall_ns),
        "cpu_ns_per_point_median": statistics.median(cpu_ns),
        "ns_per_point": wall_ns,
    }


def one_ap_changed(live: list) -> list:
    """*live* with its first AP moved to the channel of the first AP
    on another channel (a one-channel shift when all share one)."""
    (ap, spans), rest = live[0], live[1:]
    other = next((s for _, s in rest if s != spans), None)
    if other is None:
        other = frozenset(c + 1 for c in spans)
    return [(ap, other), *rest]


def associate_row(num_aps: int, kind: str) -> dict:
    """``VectorFleet.associate_and_score`` per client on the roam-dense
    metro with *num_aps* APs, for a tick of *kind* (``FLEET_TICKS``)."""
    metro = generate_metro(
        OCCUPIED, seed=SEED, extent_m=FLEET_EXTENT_M, sites_per_channel=(1, 1)
    )
    db = WhiteSpaceDatabase(metro)
    aps = boot_aps(db, num_aps, SEED, "roaming-aps")
    live = snapshot_assigned_aps(aps)[0]
    snapshots = {
        "steady": None,
        "identical-snapshot": (live, live),
        "one-ap-changed": (one_ap_changed(live), live),
    }[kind]
    fleet = VectorFleet(
        spawn_clients(FLEET_CLIENTS, SEED, "roaming-client", FLEET_EXTENT_M),
        FLEET_EXTENT_M,
        db.responses,
    )
    fleet.set_snapshot(live, num_aps)

    def tick(k: int) -> None:
        # One session tick up to association: advance, then re-check.
        t_us = k * DEFAULT_TICK_US
        if k:
            fleet.advance(DEFAULT_SPEED_MPS * DEFAULT_TICK_US / 1e6)
        qx, qy = fleet.cells(db.cache_resolution_m)
        bucket = ttl_bucket(t_us, db.ttl_us)
        due = fleet.recheck_due(qx, qy, bucket)
        if due.size:
            cells = np.column_stack([qx[due], qy[due]])
            ids = db.response_ids_in_cells(cells, t_us).ids
            fleet.commit_recheck(due, qx, qy, bucket, ids)

    for k in range(WARM_TICKS):
        tick(k)
        fleet.associate_and_score(metro, k * DEFAULT_TICK_US)
    wall_ns, cpu_ns, expired, reevaluated = [], [], [], []
    for k in range(WARM_TICKS, WARM_TICKS + REPEATS):
        tick(k)
        wall, cpu = 0, 0
        if snapshots is not None:
            wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
            fleet.set_snapshot(snapshots[(k - WARM_TICKS) % 2], num_aps)
            wall = time.perf_counter_ns() - wall0
            cpu = time.process_time_ns() - cpu0
        expired.append(np.count_nonzero(fleet.slack < 0) / fleet.n)
        before = fleet.reevaluated
        wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
        fleet.associate_and_score(metro, k * DEFAULT_TICK_US)
        wall += time.perf_counter_ns() - wall0
        cpu += time.process_time_ns() - cpu0
        wall_ns.append(wall / fleet.n)
        cpu_ns.append(cpu / fleet.n)
        reevaluated.append((fleet.reevaluated - before) / fleet.n)
    return {
        "layer": "VectorFleet.associate_and_score",
        "tick": kind,
        "aps": num_aps,
        "live_aps": len(live),
        "clients": fleet.n,
        "extent_m": FLEET_EXTENT_M,
        "speed_mps": DEFAULT_SPEED_MPS,
        "repeats": REPEATS,
        "expired_frac": statistics.median(expired),
        "reevaluated_frac": statistics.median(reevaluated),
        "ns_per_client_median": statistics.median(wall_ns),
        "ns_per_client_min": min(wall_ns),
        "cpu_ns_per_client_median": statistics.median(cpu_ns),
        "ns_per_client": wall_ns,
    }


def advance_row(clients: int, extent_m: float) -> dict:
    """``VectorFleet.advance`` per client per tick: *clients* walkers on
    an *extent_m* plane at the default 14 m/s, after WARM_TICKS untimed
    ticks."""
    fleet = VectorFleet(
        spawn_clients(clients, SEED, "roaming-client", extent_m),
        extent_m,
        ResponseTable(),
    )
    step_m = DEFAULT_SPEED_MPS * DEFAULT_TICK_US / 1e6
    for _ in range(WARM_TICKS):
        fleet.advance(step_m)
    wall_ns, cpu_ns = [], []
    for _ in range(REPEATS):
        wall0, cpu0 = time.perf_counter_ns(), time.process_time_ns()
        fleet.advance(step_m)
        wall_ns.append((time.perf_counter_ns() - wall0) / fleet.n)
        cpu_ns.append((time.process_time_ns() - cpu0) / fleet.n)
    return {
        "layer": "VectorFleet.advance",
        "clients": fleet.n,
        "extent_m": extent_m,
        "speed_mps": DEFAULT_SPEED_MPS,
        "repeats": REPEATS,
        "ns_per_client_median": statistics.median(wall_ns),
        "ns_per_client_min": min(wall_ns),
        "cpu_ns_per_client_median": statistics.median(cpu_ns),
        "ns_per_client": wall_ns,
    }


def append_log_entry(entry: dict) -> None:
    """Append one invocation entry to its trajectory log."""
    path = trajectory_log(entry["smoke"])
    log = json.loads(path.read_text()) if path.exists() else {"entries": []}
    log["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(log, indent=2) + "\n")


def test_layers_ns_per_op(record_table):
    rows = [
        measure_row(hit_rate, batch)
        for hit_rate in CELLS
        for batch in BATCH_SIZES
    ]
    for row in rows:
        assert abs(row["measured_hit_rate"] - row["hit_rate"]) < 0.005, row
    routed = router_row()
    assert routed["shard_calls"] <= STORM_SHARDS, routed
    rows.append(routed)
    fronted = [
        frontend_row(policy, sample)
        for policy in SHED_POLICIES
        for sample in SPAN_SAMPLES
    ]
    for row in fronted:
        assert row["shed_frac"] == (STORM_BURST - STORM_TOKENS) / STORM_BURST, row
        stale = row["stale_frac"]
        assert (stale > 0) == (row["policy"] == "serve-stale"), row
    stormed = storm_row()
    associated = [
        associate_row(num_aps, kind)
        for num_aps in FLEET_APS
        for kind in FLEET_TICKS
    ]
    for row in associated:
        assert 0.0 < row["expired_frac"] <= 1.0, row
        assert row["reevaluated_frac"] == row["expired_frac"], row
    advanced = [advance_row(clients, extent) for clients, extent in ADVANCE_FLEETS]
    entry = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "version": repro.__version__,
        "host": {
            "node": platform.node() or "unknown",
            "machine": platform.machine(),
            "python": platform.python_version(),
            "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
        "smoke": SMOKE,
        "layers": [
            rows[0]["layer"], routed["layer"], fronted[0]["layer"],
            stormed["layer"], associated[0]["layer"], advanced[0]["layer"],
        ],
        "shape": {
            "extent_m": EXTENT_M,
            "tv_channels": [OCCUPIED.start, OCCUPIED.stop - 1],
            "mics": MICS,
            "seed": SEED,
        },
        "rows": [*rows, *fronted, stormed, *associated, *advanced],
    }
    append_log_entry(entry)
    lines = [
        f"{'layer':<42} {'hit':>5} {'batch':>6} {'ns/cell med':>12} "
        f"{'ns/cell min':>12} {'cpu ns med':>11}"
    ]
    lines += [
        f"{r['layer']:<42} {r['measured_hit_rate']:>5.0%} {r['batch']:>6} "
        f"{r['ns_per_cell_median']:>12.0f} {r['ns_per_cell_min']:>12.0f} "
        f"{r['cpu_ns_per_cell_median']:>11.0f}"
        for r in rows
    ]
    lines.append(f"router shard calls per {ROUTER_CELLS}-cell batch: {routed['shard_calls']}")
    lines.append(
        f"{'layer':<42} {'policy':>11} {'spans':>8} {'burst':>6} {'shed':>5} "
        f"{'stale':>6} {'ns/req med':>11} {'ns/req min':>11} {'cpu ns med':>11}"
    )
    lines += [
        f"{r['layer']:<42} {r['policy']:>11} {r['spans']:>8} {r['batch']:>6} "
        f"{r['shed_frac']:>5.0%} {r['stale_frac']:>6.1%} "
        f"{r['ns_per_request_median']:>11.0f} {r['ns_per_request_min']:>11.0f} "
        f"{r['cpu_ns_per_request_median']:>11.0f}"
        for r in fronted
    ]
    lines.append(
        f"{stormed['layer']:<42} {stormed['tick_points']:>6} points/tick "
        f"{stormed['ns_per_point_median']:>8.1f} ns/point med "
        f"{stormed['ns_per_point_min']:>8.1f} min "
        f"{stormed['cpu_ns_per_point_median']:>8.1f} cpu"
    )
    lines.append(
        f"{'layer':<42} {'tick':>18} {'APs':>4} {'clients':>8} {'re-eval':>8} "
        f"{'ns/cl med':>10} {'ns/cl min':>10} {'cpu ns med':>11}"
    )
    lines += [
        f"{r['layer']:<42} {r['tick']:>18} {r['aps']:>4} {r['clients']:>8} "
        f"{r['reevaluated_frac']:>8.1%} {r['ns_per_client_median']:>10.0f} "
        f"{r['ns_per_client_min']:>10.0f} {r['cpu_ns_per_client_median']:>11.0f}"
        for r in associated
    ]
    lines.append(
        f"{'layer':<42} {'clients':>8} {'extent m':>9} "
        f"{'ns/cl med':>10} {'ns/cl min':>10} {'cpu ns med':>11}"
    )
    lines += [
        f"{r['layer']:<42} {r['clients']:>8} {r['extent_m']:>9.0f} "
        f"{r['ns_per_client_median']:>10.0f} {r['ns_per_client_min']:>10.0f} "
        f"{r['cpu_ns_per_client_median']:>11.0f}"
        for r in advanced
    ]
    record_table("bench_layers", lines, data=entry)
