"""A pinned recorded querystorm trace.

The digest below is the sha256 of the decompressed JSONL of one small
recorded storm: push on, ``serve-stale``, rate-limited far below the
offered load, so the trace carries shed, stale-served, deferred and
push-refreshed requests.  Performance work on the request path (storm
generation, admission, coalescing, re-check batching) must leave every
recorded event unchanged; this test checks that instead of asserting
it.  Hashing the decompressed text keeps the pin independent of the
zlib build.
"""

import gzip
import hashlib

import pytest

from repro.traces.record import TraceRecorder
from repro.wsdb.cluster import ShardRouter, simulate_querystorm
from repro.wsdb.model import generate_metro

PINNED_SHA256 = (
    "d9a3169d8139b657bafa08784dc4b1a70021d6dba8b2adf84f1cd1f48e608c37"
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
