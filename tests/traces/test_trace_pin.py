"""Pinned recorded querystorm, roaming and citywide traces.

The storm digest is the sha256 of the decompressed JSONL of one small
recorded storm: push on, ``serve-stale``, rate-limited far below the
offered load, so the trace carries shed, stale-served, deferred and
push-refreshed requests.  The roaming digest is one small recorded
roaming session with mic events, whose trace carries re-checks,
handoffs and violation windows.  The citywide digest is one small
recorded citywide session, whose trace carries mic registrations and
the end-of-session sweep's one query per AP.  Performance work on the request path
(storm generation, admission, coalescing, re-check batching) and on
the tick loop must leave every recorded event unchanged; these tests
check that instead of asserting it.  Hashing the decompressed text
keeps the pins independent of the zlib build.
"""

import gzip
import hashlib

import pytest

from repro.traces.record import TraceRecorder, read_trace
from repro.wsdb.citywide import simulate_citywide
from repro.wsdb.cluster import ShardRouter, simulate_querystorm
from repro.wsdb.mobility import simulate_roaming
from repro.wsdb.model import generate_metro
from repro.wsdb.service import WhiteSpaceDatabase

PINNED_SHA256 = (
    "4b44ac9bf391663f58dac4a41282d8fc6c94cd8ad78a99562ebbb1c5eee3e1f4"
)


def record_pinned_storm(path, engine):
    metro = generate_metro(
        range(12), extent_m=2_500.0, seed=11, num_channels=30
    )
    recorder = TraceRecorder(path)
    report = simulate_querystorm(
        ShardRouter(metro, num_shards=4),
        12,
        num_clients=40,
        duration_us=90e6,
        seed=11,
        offered_qps=30.0,
        push=True,
        mic_events=6,
        speed_mps=8.0,
        rate_limit_qps=20.0,
        burst_size=25.0,
        policy="serve-stale",
        engine=engine,
        recorder=recorder,
    )
    recorder.close()
    return report


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_recorded_storm_trace_is_pinned(tmp_path, engine):
    if engine == "vector":
        pytest.importorskip("numpy")
    path = tmp_path / "storm.jsonl.gz"
    report = record_pinned_storm(path, engine)
    fe = report["frontend"]
    # The pin is only meaningful if the run exercises every outcome.
    assert fe["shed"] > 0 and fe["served_stale"] > 0
    assert report["deferred_requeries"] > 0 and report["push_refreshes"] > 0
    digest = hashlib.sha256(gzip.decompress(path.read_bytes())).hexdigest()
    assert digest == PINNED_SHA256


ROAMING_SHA256 = (
    "b9cc3ffda4915294724374fea19157073b2f819f2766f9bf57ad71d9c25f7438"
)


def record_pinned_roaming(path, engine):
    # Seed 38: a violation window closes mid-run and four are still open
    # at the end (seed 26 kept one open until the paths were redrawn).
    metro = generate_metro(range(10), extent_m=3_000.0, seed=38)
    recorder = TraceRecorder(path)
    report = simulate_roaming(
        WhiteSpaceDatabase(metro),
        num_aps=8,
        num_clients=30,
        duration_us=72.5e6,
        seed=38,
        speed_mps=9.0,
        recheck_m=150.0,
        mic_events=6,
        engine=engine,
        recorder=recorder,
    )
    recorder.close()
    return report


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_recorded_roaming_trace_is_pinned(tmp_path, engine):
    if engine == "vector":
        pytest.importorskip("numpy")
    path = tmp_path / "roaming.jsonl.gz"
    report = record_pinned_roaming(path, engine)
    # Every per-stage hook fires: re-checks, handoffs, and violation
    # windows opened by the mic events, one still open at the end.
    assert report["requeries"] > 0 and report["handoffs"] > 0
    assert report["displaced_aps"] > 0 and report["violation_ticks"] > 0
    _, events = read_trace(path)
    closes = [e.aux for e in events if e.kind == "violation_close"]
    assert 0 in closes and 1 in closes
    digest = hashlib.sha256(gzip.decompress(path.read_bytes())).hexdigest()
    assert digest == ROAMING_SHA256


CITYWIDE_SHA256 = (
    "a0e914c205ef143f9b4c71b306c55dc96a1eb1c4251aa382abf6a1812419bae0"
)


def record_pinned_citywide(path):
    metro = generate_metro(range(10), extent_m=3_000.0, seed=26)
    recorder = TraceRecorder(path)
    report = simulate_citywide(
        WhiteSpaceDatabase(metro, cache_capacity=12),
        num_aps=20,
        duration_us=300e6,
        seed=26,
        mic_events=12,
        recorder=recorder,
    )
    recorder.close()
    return report


def test_recorded_citywide_trace_is_pinned(tmp_path):
    path = tmp_path / "citywide.jsonl.gz"
    report = record_pinned_citywide(path)
    assert report["displaced_aps"] > 0
    _, events = read_trace(path)
    kinds = [e.kind for e in events]
    # Every registration and one end-of-session sweep query per AP.
    assert kinds.count("mic") == 12 and kinds.count("query") == 20
    digest = hashlib.sha256(gzip.decompress(path.read_bytes())).hexdigest()
    assert digest == CITYWIDE_SHA256
