"""The layer split: which callables are traced, and the per-layer metrics.

Each traced module is one layer.  A layer's ``*_s`` metrics are self
times (a call's duration minus the timed calls nested in it) summed
over the named callables, except ``citywide.boot_s`` and
``citywide.displace_s``, which are the inclusive times of those two
entry points.  Times are net of the tracer's own per-call cost, which
is estimated once per run and reported as ``tracer.overhead_s``.
Counts come from the wrappers or from the report's own stats.
:data:`LAYER_MAP` is the prediction each metric is held to: the
end-to-end metric it should move, on the workload that exercises it,
and the workload where it should show no effect.
"""

from __future__ import annotations

import statistics
import sys
from typing import Any

from repro.telemetry import metrics as tmetrics
from repro.telemetry import spans as tspans
from repro.wsdb import citywide, index, mobility, service, vector
from repro.wsdb.cluster import frontend, push, querystorm, router

#: The traced modules, by layer name.
LAYERS = {
    "mobility": mobility,
    "vector": vector,
    "service": service,
    "index": index,
    "citywide": citywide,
    "router": router,
    "frontend": frontend,
    "push": push,
    "storm": querystorm,
    "metrics": tmetrics,
    "spans": tspans,
}
_LAYER_OF = {m.__name__: layer for layer, m in LAYERS.items()}

#: Leaf helpers called per request, per candidate or per cached entry:
#: left unwrapped, so their time stays in the caller's self time and
#: tracing stays cheap.
UNTRACED = frozenset(
    f"{m.__name__}:{name}"
    for m, names in (
        (service, ("quantize_cell", "ttl_bucket", "WhiteSpaceDatabase.cell_of")),
        (index, ("circle_intersects_rect", "circle_intersects_cell", "GridIndex.cell_of",
                 "GridIndex.cells_overlapping", "GridIndex.candidates")),
        (router, ("cells_per_side", "ShardRouter.shard_of", "ShardTerritory.touches_zone")),
        (frontend, ("TokenBucket.admit", "BatchFrontend.stale_response",
                    "RejectPolicy.shed", "ServeStalePolicy.shed")),
        (vector, ("VectorFleet.intern",)),
        (mobility, ("advance_position", "advance_client", "associate_nearest", "in_violation")),
        (tmetrics, ("metric_key",)),
    )
    for name in names
)
#: Per-request helpers whose call counts are layer metrics: counted only.
COUNTED = frozenset({
    f"{router.__name__}:ShardRouter.cell_of",
    f"{router.__name__}:ShardRouter.shard_of_cell",
    # The storm generator runs inside StormFeed.burst, which it is charged to.
    f"{querystorm.__name__}:synthetic_storm",
})
#: The tick clock: successive returns of associate_and_score.
TICK = f"{vector.__name__}:VectorFleet.associate_and_score"
WATCHED = frozenset({TICK})

DRIVERS = {"simulate_roaming", "simulate_querystorm", "simulate_roaming_vector",
           "simulate_querystorm_vector", "simulate_citywide"}


def group(name: str) -> str:
    """The layer a traced name is charged to (``driver`` for drivers)."""
    module, qualname = name.split(":", 1)
    if qualname in DRIVERS:
        return "driver"
    if qualname.startswith("Null"):
        return "null-observers"
    return _LAYER_OF[module]


def binders() -> list:
    """Every loaded program module (where module functions may be bound)."""
    return [m for n, m in sorted(sys.modules.items()) if n == "repro" or n.startswith("repro.")]


#: metric -> (unit, better, end-to-end metric it should move, workload it
#: shows on, workload that bypasses it).
LAYER_MAP = {
    "mobility.spawn_s": ("s", "lower", "setup_s, peak_rss_mb", "roam-dense", "storm"),
    "vector.advance_s": ("s", "lower", "client_ticks_per_s", "roam-dense", "storm"),
    "vector.associate_s": ("s", "lower", "client_ticks_per_s", "roam-dense", "storm"),
    "vector.commit_s": ("s", "lower", "client_ticks_per_s", "roam-dense", "storm"),
    "vector.snapshot_s": ("s", "lower", "client_ticks_per_s", "churn-observed", "storm"),
    "vector.snapshot_calls": ("count", "lower", "client_ticks_per_s", "churn-observed", "storm"),
    "service.lookup_s": ("s", "lower", "requests_per_s, client_ticks_per_s", "roam-dense", "storm"),
    "service.lookup_calls": ("count", "lower", "requests_per_s", "roam-dense", "storm"),
    "service.cells_per_call": ("cells/call", "higher", "requests_per_s", "roam-dense", "storm"),
    "service.ns_per_cell": ("ns", "lower", "requests_per_s", "roam-sparse", "roam-dense"),
    "service.hit_rate": ("ratio", "higher", "requests_per_s", "roam-dense", "roam-sparse"),
    "service.evictions": ("count", "lower", "requests_per_s", "roam-sparse", "roam-dense"),
    "service.register_mic_s": ("s", "lower", "requests_per_s", "churn-observed", "roam-dense"),
    "service.invalidations": ("count", "lower", "requests_per_s", "churn-observed", "roam-dense"),
    "index.covering_rect_s": ("s", "lower", "client_ticks_per_s", "roam-sparse", "roam-dense"),
    "index.covering_rect_calls": ("count", "lower", "client_ticks_per_s", "roam-sparse", "roam-dense"),
    "index.candidates_per_miss": ("count", "lower", "client_ticks_per_s", "roam-sparse", "roam-dense"),
    "router.cell_of_calls": ("count", "lower", "requests_per_s", "storm", "roam-dense"),
    "router.shard_of_cell_calls": ("count", "lower", "requests_per_s", "storm", "roam-dense"),
    "router.register_mic_s": ("s", "lower", "requests_per_s", "churn-observed", "roam-dense"),
    "router.fanout": ("shards/mic", "lower", "requests_per_s", "churn-observed", "roam-dense"),
    "frontend.self_s": ("s", "lower", "requests_per_s, answered_frac", "storm", "roam-dense"),
    "frontend.batch_calls": ("count", "lower", "requests_per_s", "storm", "roam-dense"),
    "frontend.requests_per_batch": ("req/batch", "higher", "requests_per_s", "storm", "roam-dense"),
    "frontend.ns_per_request": ("ns", "lower", "requests_per_s", "storm", "roam-dense"),
    "frontend.coalesced_frac": ("ratio", "higher", "requests_per_s", "storm", "roam-dense"),
    "frontend.shed_frac": ("ratio", "lower", "answered_frac", "storm", "roam-dense"),
    "frontend.stale_frac": ("ratio", "lower", "answered_frac", "churn-observed", "storm"),
    "frontend.register_mic_s": ("s", "lower", "requests_per_s", "churn-observed", "roam-dense"),
    "push.subscribe_s": ("s", "lower", "requests_per_s", "churn-observed", "storm"),
    "push.subscribe_calls": ("count", "lower", "requests_per_s", "churn-observed", "storm"),
    "push.notify_s": ("s", "lower", "requests_per_s", "churn-observed", "storm"),
    "push.notifications": ("count", "lower", "requests_per_s", "churn-observed", "storm"),
    "storm.burst_s": ("s", "lower", "requests_per_s", "storm", "churn-observed"),
    "storm.points": ("count", "lower", "requests_per_s", "storm", "churn-observed"),
    "citywide.boot_s": ("s", "lower", "setup_s", "churn-observed", "roam-dense"),
    "citywide.displace_s": ("s", "lower", "requests_per_s", "churn-observed", "roam-dense"),
    "citywide.displace_calls": ("count", "lower", "requests_per_s", "churn-observed", "roam-dense"),
    "spans.record_s": ("s", "lower", "requests_per_s", "churn-observed", "storm"),
    "spans.requests": ("count", "lower", "requests_per_s", "churn-observed", "storm"),
    "spans.traces_kept": ("count", "lower", "requests_per_s", "churn-observed", "storm"),
    "metrics.record_s": ("s", "lower", "requests_per_s", "churn-observed", "storm"),
    "metrics.snapshot_s": ("s", "lower", "requests_per_s", "churn-observed", "storm"),
    "driver.self_s": ("s", "lower", "all", "all", "none"),
    "tick.p50_ms": ("ms", "lower", "client_ticks_per_s", "all", "none"),
    "tick.p90_ms": ("ms", "lower", "client_ticks_per_s", "all", "none"),
    "tick.max_ms": ("ms", "lower", "client_ticks_per_s", "all", "none"),
    "coverage": ("ratio", "higher", "all", "all", "none"),
    "trace_overhead": ("ratio", "lower", "all", "all", "none"),
    "tracer.overhead_s": ("s", "lower", "all", "all", "none"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(
    agg: dict[str, tuple[int, float, float, float]],
    report: dict[str, Any],
    tick_returns: list[float],
    traced_wall_s: float,
    untraced_wall_s: float,
) -> dict[str, float]:
    """Every :data:`LAYER_MAP` metric from one traced session.

    *agg* is :meth:`Tracer.by_name` (``name -> (calls, total_s,
    self_s, overhead_s)``); *report* the traced session's report.
    ``coverage`` is the self time of every non-driver layer ÷ the traced
    wall time net of the tracer's own cost.
    """

    def pick(layer: str, *qualnames: str, field: int = 2) -> float:
        module = LAYERS[layer].__name__
        return sum(agg.get(f"{module}:{q}", (0, 0.0, 0.0, 0.0))[field] for q in qualnames)

    def calls(layer: str, *qualnames: str) -> int:
        return int(pick(layer, *qualnames, field=0))

    def layer_self(layer: str, exclude: tuple[str, ...] = ()) -> float:
        return sum(
            row[2] for name, row in agg.items()
            if group(name) == layer and name.split(":", 1)[1] not in exclude
        )

    db = report["db"]
    fe = report.get("frontend") or {}
    pushes = report.get("push_stats") or {}
    span_table = report.get("spans") or {}
    lookups = ("WhiteSpaceDatabase.channels_in_cells", "WhiteSpaceDatabase.channels_in_cell",
               "WhiteSpaceDatabase.channels_at", "WhiteSpaceDatabase.channels_at_many",
               "WhiteSpaceDatabase.spectrum_map_at")
    lookup_s = pick("service", *lookups)
    frontend_s = layer_self("frontend")
    ticks_ms = [(b - a) * 1e3 for a, b in zip(tick_returns, tick_returns[1:])]
    tick_deciles = statistics.quantiles(ticks_ms, n=10, method="inclusive")
    attributed = sum(row[2] for name, row in agg.items() if group(name) != "driver")
    overhead_s = sum(row[3] for row in agg.values())

    out = {
        "mobility.spawn_s": pick("mobility", "spawn_clients"),
        "vector.advance_s": pick("vector", "VectorFleet.advance"),
        "vector.associate_s": pick("vector", "VectorFleet.associate_and_score"),
        "vector.commit_s": pick("vector", "VectorFleet.commit_recheck"),
        "vector.snapshot_s": pick("vector", "VectorFleet.set_snapshot"),
        "vector.snapshot_calls": calls("vector", "VectorFleet.set_snapshot"),
        "service.lookup_s": lookup_s,
        "service.lookup_calls": calls("service", *lookups),
        "service.cells_per_call": _ratio(db["queries"], calls("service", *lookups)),
        "service.ns_per_cell": _ratio(lookup_s * 1e9, db["queries"]),
        "service.hit_rate": db["hit_rate"],
        "service.evictions": db["evictions"],
        "service.register_mic_s": pick("service", "WhiteSpaceDatabase.register_mic"),
        "service.invalidations": db["invalidations"],
        "index.covering_rect_s": pick("index", "GridIndex.covering_rect"),
        "index.covering_rect_calls": calls("index", "GridIndex.covering_rect"),
        "index.candidates_per_miss": _ratio(db["candidates_scanned"], db["cache_misses"]),
        "router.cell_of_calls": calls("router", "ShardRouter.cell_of"),
        "router.shard_of_cell_calls": calls("router", "ShardRouter.shard_of_cell"),
        "router.register_mic_s": pick("router", "ShardRouter.register_mic"),
        "router.fanout": _ratio(db.get("registration_fanout", 0), db["mic_registrations"]),
        "frontend.self_s": frontend_s,
        "frontend.batch_calls": calls("frontend", "BatchFrontend.query_batch"),
        "frontend.requests_per_batch": _ratio(fe.get("requests", 0), fe.get("batches", 0)),
        "frontend.ns_per_request": _ratio(frontend_s * 1e9, fe.get("requests", 0)),
        "frontend.coalesced_frac": _ratio(fe.get("coalesced", 0), fe.get("requests", 0)),
        "frontend.shed_frac": _ratio(fe.get("shed", 0), fe.get("requests", 0)),
        "frontend.stale_frac": _ratio(fe.get("served_stale", 0), fe.get("requests", 0)),
        "frontend.register_mic_s": pick("frontend", "BatchFrontend.register_mic"),
        "push.subscribe_s": pick("push", "PushRegistry.subscribe"),
        "push.subscribe_calls": calls("push", "PushRegistry.subscribe"),
        "push.notify_s": pick("push", "PushRegistry.notify_zone"),
        "push.notifications": pushes.get("notifications", 0),
        "storm.burst_s": pick("storm", "StormFeed.burst"),
        "storm.points": report.get("storm_queries", 0),
        "citywide.boot_s": pick("citywide", "boot_aps", field=1),
        "citywide.displace_s": pick("citywide", "displace_covered_aps", field=1),
        "citywide.displace_calls": calls("citywide", "displace_covered_aps"),
        "spans.record_s": layer_self("spans", exclude=("SpanRecorder.snapshot",)),
        "spans.requests": calls("spans", "SpanRecorder.request_begin"),
        "spans.traces_kept": span_table.get("traces", 0),
        "metrics.record_s": layer_self("metrics", exclude=("MetricsRegistry.snapshot",)),
        "metrics.snapshot_s": pick("metrics", "MetricsRegistry.snapshot"),
        "driver.self_s": layer_self("driver"),
        "tick.p50_ms": statistics.median(ticks_ms),
        "tick.p90_ms": tick_deciles[8],
        "tick.max_ms": max(ticks_ms),
        "coverage": attributed / (traced_wall_s - overhead_s),
        "trace_overhead": traced_wall_s / untraced_wall_s,
        "tracer.overhead_s": overhead_s,
    }
    if out.keys() != LAYER_MAP.keys():
        raise RuntimeError(f"per-layer metrics drifted from LAYER_MAP: {out.keys() ^ LAYER_MAP.keys()}")
    return out


def by_layer(agg: dict[str, tuple[int, float, float, float]], field: int) -> dict[str, float]:
    """One :meth:`Tracer.by_name` column summed per layer, largest first
    (``field`` 2: self seconds; 3: the tracer's overhead charged there)."""
    out: dict[str, float] = {}
    for name, row in agg.items():
        out[group(name)] = out.get(group(name), 0.0) + row[field]
    return dict(sorted(out.items(), key=lambda kv: -kv[1]))
