"""Pinned full reports of one roaming, one querystorm and one citywide session.

Each digest is the sha256 of a report's canonical JSON (sorted keys,
compact separators — the form ``perfbench/workloads.digest`` hashes),
with a :class:`~repro.telemetry.metrics.MetricsRegistry` and an
unsampled :class:`~repro.telemetry.spans.SpanRecorder` (the
``spans="on"`` setting) attached, so the telemetry snapshot and the
span table are pinned along with every counter.  Both engines must
reproduce the same bytes.  The citywide session has no tick loop or
spans; its pin covers the telemetry snapshot and the database counters
of a small, evicting cache across boot, mic displacement and the
end-of-session sweep.  Refactoring the mobile drivers must leave
these digests unchanged; a deliberate behaviour change re-pins them
and says why.

Two id-free digests per span-carrying pin hold what a change of trace
id scheme may not move: the report with its ``"spans"`` table removed,
and the span table with every trace id replaced by its root's
identity (spans lose their ``"trace"`` field, traces order by root
``t0_us``, ``req`` and ``subject``, and exemplars name those roots).
"""

import hashlib
import json

import pytest

from repro.telemetry import MetricsRegistry, SpanRecorder
from repro.wsdb.citywide import simulate_citywide
from repro.wsdb.cluster import ShardRouter, simulate_querystorm
from repro.wsdb.mobility import ENGINES, simulate_roaming
from repro.wsdb.model import generate_metro
from repro.wsdb.service import WhiteSpaceDatabase

pytest.importorskip("numpy")

ROAMING_SHA256 = (
    "f5e37be2f88d9f119124cb5809c335c08fb1f944cbb64ff82792efbad71ac37d"
)
QUERYSTORM_SHA256 = (
    "7ba0d54eab9da6f065c7085ec5746b782b5eb1cb31c3200c174933160e45a7d3"
)

#: Digests of the roaming and querystorm pins with trace ids taken out:
#: (report without ``"spans"``, id-free span table).
ROAMING_ID_FREE_SHA256 = (
    "1c5ec672c0713caf7247cef1f57743d67ed199599735d44a5d62d348335b09c3",
    "526b373c3a389b8689b7bf4e087ab6663f9414a3747957b46510ec327f3f0719",
)
QUERYSTORM_ID_FREE_SHA256 = (
    "5bd32bfad69bccf1d6ad8e887e1bccd49a774a0d8d41b1e09ae65bda40994eb9",
    "265049ddc1aa647d4b40e903eb32aa5b4346ac98111f0f25e394335ad20d8564",
)

CITYWIDE_SHA256 = (
    "a95f874c1ccf99fb746061bc7d7237cae2a50cb32348fba31939954325bee4c3"
)


def canonical_digest(report):
    text = json.dumps(
        report, sort_keys=True, separators=(",", ":"), default=repr
    )
    return hashlib.sha256(text.encode()).hexdigest()


def id_free_digests(report):
    """(report without ``"spans"``, id-free span table) digests."""
    table = report["spans"]
    traces = {}
    for span in table["spans"]:
        traces.setdefault(span["trace"], []).append(
            {k: v for k, v in span.items() if k != "trace"}
        )
    roots = {
        tid: (spans[0]["t0_us"], spans[0]["attrs"]["req"],
              spans[0]["attrs"]["subject"])
        for tid, spans in traces.items()
    }
    order = sorted(traces, key=lambda tid: (roots[tid], repr(traces[tid])))
    id_free = {k: v for k, v in table.items() if k not in ("spans", "exemplars")}
    id_free["traces_by_root"] = [traces[tid] for tid in order]
    id_free["exemplars"] = {
        bucket: [roots[tid] for tid in ids]
        for bucket, ids in table["exemplars"].items()
    }
    rest = {k: v for k, v in report.items() if k != "spans"}
    return canonical_digest(rest), canonical_digest(id_free)


def pinned_roaming(engine):
    # recheck_m (150 m) differs from the 100 m cache resolution, so
    # trigger and query cells differ; 12 cache entries force evictions.
    metro = generate_metro(range(10), extent_m=3_000.0, seed=26)
    return simulate_roaming(
        WhiteSpaceDatabase(metro, cache_capacity=12),
        num_aps=8,
        num_clients=30,
        duration_us=90e6,
        seed=26,
        speed_mps=9.0,
        recheck_m=150.0,
        mic_events=6,
        engine=engine,
        telemetry=MetricsRegistry(),
        spans=SpanRecorder(),
    )


def pinned_querystorm(engine):
    metro = generate_metro(
        range(12), extent_m=2_500.0, seed=31, num_channels=30
    )
    return simulate_querystorm(
        ShardRouter(metro, num_shards=4),
        10,
        num_clients=30,
        duration_us=80e6,
        seed=31,
        offered_qps=30.0,
        push=True,
        mic_events=6,
        speed_mps=8.0,
        rate_limit_qps=20.0,
        burst_size=25.0,
        policy="serve-stale",
        engine=engine,
        telemetry=MetricsRegistry(),
        spans=SpanRecorder(),
    )


def pinned_citywide():
    # 40 APs against 12 cache entries: the LRU order decides which
    # responses survive, so any reordering of the queries shows.
    metro = generate_metro(range(10), extent_m=3_000.0, seed=26)
    return simulate_citywide(
        WhiteSpaceDatabase(metro, cache_capacity=12),
        num_aps=40,
        duration_us=300e6,
        seed=26,
        mic_events=40,
        telemetry=MetricsRegistry(),
    )


@pytest.mark.parametrize("engine", ENGINES)
def test_roaming_report_is_pinned(engine):
    report = pinned_roaming(engine)
    # The pin is only meaningful if the run exercises what it claims.
    assert report["db"]["evictions"] > 0
    assert report["mic_events"] == 6 and report["displaced_aps"] > 0
    assert report["vacations"] > 0 and report["violation_ticks"] > 0
    assert report["telemetry"] and report["spans"]
    assert id_free_digests(report) == ROAMING_ID_FREE_SHA256
    assert canonical_digest(report) == ROAMING_SHA256


@pytest.mark.parametrize("engine", ENGINES)
def test_querystorm_report_is_pinned(engine):
    report = pinned_querystorm(engine)
    fe = report["frontend"]
    assert fe["shed"] > 0 and fe["served_stale"] > 0
    assert report["deferred_requeries"] > 0 and report["push_refreshes"] > 0
    assert report["mic_events"] == 6 and report["violation_ticks"] > 0
    assert report["telemetry"] and report["spans"]
    assert id_free_digests(report) == QUERYSTORM_ID_FREE_SHA256
    assert canonical_digest(report) == QUERYSTORM_SHA256


def test_citywide_report_is_pinned():
    report = pinned_citywide()
    assert report["db"]["evictions"] > 0
    assert report["displaced_aps"] > 0
    assert report["backup_recoveries"] > 0
    assert report["full_reassignments"] > 0
    assert report["telemetry"]
    assert canonical_digest(report) == CITYWIDE_SHA256
