"""End-to-end trace tests: record, replay bit-identity, engine parity,
the storm seam, full event-kind coverage, and the trace_diff tool."""

import collections
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.sim.rng import stream_seed
from repro.traces.record import TraceEvent, TraceRecorder, read_trace
from repro.traces.replay import TraceWorkload
from repro.wsdb.citywide import simulate_citywide
from repro.wsdb.cluster import ShardRouter, simulate_querystorm
from repro.wsdb.cluster.querystorm import StormFeed, synthetic_storm
from repro.wsdb.mobility import simulate_roaming
from repro.wsdb.model import generate_metro
from repro.wsdb.service import WhiteSpaceDatabase

REPO_ROOT = pathlib.Path(__file__).parent.parent.parent
TRACE_DIFF = REPO_ROOT / "scripts" / "trace_diff.py"


def storm_router(seed: int = 11) -> ShardRouter:
    metro = generate_metro(
        range(12), extent_m=2_500.0, seed=seed, num_channels=30
    )
    return ShardRouter(metro, num_shards=4)


def run_storm(recorder=None, storm_source=None, engine="scalar", **overrides):
    params = dict(
        num_clients=8,
        duration_us=40e6,
        seed=11,
        offered_qps=40.0,
        push=True,
        mic_events=4,
        speed_mps=6.0,
    )
    params.update(overrides)
    return simulate_querystorm(
        storm_router(params["seed"]),
        12,
        engine=engine,
        recorder=recorder,
        storm_source=storm_source,
        **params,
    )


def record_storm(path, engine="scalar", **overrides):
    recorder = TraceRecorder(path)
    report = run_storm(recorder=recorder, engine=engine, **overrides)
    recorder.close()
    return report


class TestSyntheticStormSeam:
    def test_matches_inline_budget_algorithm(self):
        rng_seed = stream_seed(11, "querystorm-load")
        offered_qps, tick_us, ticks, extent_m = 40.5, 1e6, 40, 2_500.0
        # The pre-seam inline algorithm, reimplemented independently:
        # one uniform() draw per coordinate, x then y, per request.
        rng = random.Random(rng_seed)
        expected, budget = [], 0.0
        for tick in range(ticks + 1):
            budget += offered_qps * tick_us / 1e6
            n = int(budget)
            budget -= n
            for _ in range(n):
                expected.append(
                    (
                        tick * tick_us,
                        rng.uniform(0.0, extent_m),
                        rng.uniform(0.0, extent_m),
                    )
                )
        blocks = list(
            synthetic_storm(
                offered_qps, tick_us, ticks, extent_m, random.Random(rng_seed)
            )
        )
        # One (n, 2) float64 block per tick with requests ...
        stamps = [t_us for t_us, _ in blocks]
        assert stamps == sorted(set(stamps))
        assert all(xy.dtype == np.float64 and xy.shape[1] == 2 for _, xy in blocks)
        # ... whose flattened points equal the oracle's, bit for bit.
        produced = [
            (t_us, x, y) for t_us, xy in blocks for x, y in xy.tolist()
        ]
        assert produced == expected

    @staticmethod
    def per_draw_oracle(offered_qps, tick_us, ticks, extent_m, rng):
        """(t_us, x, y) per request from one ``rng.random()`` per coordinate."""
        out, budget = [], 0.0
        for tick in range(ticks + 1):
            budget += offered_qps * tick_us / 1e6
            n = int(budget)
            budget -= n
            for _ in range(n):
                x = 0.0 + (extent_m - 0.0) * rng.random()
                out.append((tick * tick_us, x, 0.0 + (extent_m - 0.0) * rng.random()))
        return out

    @pytest.mark.parametrize(
        "offered_qps, tick_us",
        [
            (1.0, 1e6),  # n = 1 on every tick
            (0.4, 1e6),  # a request every few ticks
            (2.5, 1e6),  # alternating n = 2 and n = 3
            (3_000.0, 1e6),  # a storm-sized tick
            (7.3, 2.5e5),  # a fractional budget per quarter-second tick
        ],
    )
    def test_points_and_state_match_per_draw_random(self, offered_qps, tick_us):
        seed = stream_seed(23, "querystorm-load")
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        blocks = list(synthetic_storm(offered_qps, tick_us, 12, 1_234.5, rng))
        produced = [(t_us, x, y) for t_us, xy in blocks for x, y in xy.tolist()]
        assert produced == self.per_draw_oracle(
            offered_qps, tick_us, 12, 1_234.5, oracle_rng
        )
        assert all(len(xy) >= 1 for _, xy in blocks)
        # The generator leaves the Random exactly where 2n random()
        # calls would: the next draws agree too.
        assert rng.getstate() == oracle_rng.getstate()
        assert rng.random() == oracle_rng.random()

    @pytest.mark.parametrize(
        "word, x, y",
        [
            (0, 0.0, 0.0),
            ((1 << 128) - 1, 1.0 - 2.0**-53, 1.0 - 2.0**-53),
            # The smallest step from each half of a draw word: its high
            # half gives the low 26 bits, its low half the top 27.
            (1 << 38 | 1 << (64 + 5), 2.0**-53, 2.0**-27),
            # The bits random() discards (b's low 6, a's low 5) give 0.
            (0x3F << 32 | 0x1F | (0x3F << 32 | 0x1F) << 64, 0.0, 0.0),
        ],
    )
    def test_word_extremes(self, word, x, y):
        class FixedBits(random.Random):
            def getrandbits(self, k):
                assert k == 128  # one request: two 64-bit draw words
                return word

        ((_, xy),) = synthetic_storm(1.0, 1e6, 0, 1.0, FixedBits())
        # The low 64-bit word is x, the high one y.
        assert xy.tolist() == [[x, y]]

    def test_storm_feed_drains_in_fence_order(self):
        blocks = [
            (0.0, np.array([[1.0, 1.0], [2.0, 2.0]])),
            (2e6, np.array([[3.0, 3.0]])),
            # A replayed trace can carry sub-tick stamps: this block is
            # due at the 3 s fence and keeps its own stamp.
            (2.5e6, np.array([[4.0, 4.0], [5.0, 5.0]])),
        ]
        feed = StormFeed(iter(blocks))
        assert feed.burst(0.0).tolist() == [[1.0, 1.0], [2.0, 2.0]]
        assert feed.last_times == [0.0, 0.0]
        assert feed.burst(1e6).shape == (0, 2)
        assert feed.last_times == []
        assert feed.burst(3e6).tolist() == [[3.0, 3.0], [4.0, 4.0], [5.0, 5.0]]
        assert feed.last_times == [2e6, 2.5e6, 2.5e6]
        assert len(feed.burst(4e6)) == 0

    def test_trace_workload_yields_one_block_per_stamp(self):
        events = [
            TraceEvent(t_us=0.0, kind="query", subject=0, x=1.0, y=2.0),
            TraceEvent(t_us=0.0, kind="query", subject=1, x=3.0, y=4.0),
            TraceEvent(t_us=0.0, kind="recheck", subject=0, x=9.0, y=9.0),
            TraceEvent(t_us=1.5e6, kind="query", subject=2, x=5.0, y=6.0),
        ]
        workload = TraceWorkload(events)
        assert len(workload) == 3
        assert [(t, xy.tolist()) for t, xy in workload] == [
            (0.0, [[1.0, 2.0], [3.0, 4.0]]),
            (1.5e6, [[5.0, 6.0]]),
        ]


class TestRecordingIsObservational:
    def test_report_unchanged_with_recorder(self, tmp_path):
        baseline = run_storm()
        recorded = record_storm(tmp_path / "storm.jsonl.gz")
        assert recorded == baseline

    def test_roaming_and_citywide_reports_unchanged(self, tmp_path):
        # Mic registrations mutate the metro, so every run gets a
        # freshly generated (deterministic) metro + database.
        def fresh_db() -> WhiteSpaceDatabase:
            metro = generate_metro(
                range(12), extent_m=2_000.0, seed=7, num_channels=30
            )
            return WhiteSpaceDatabase(metro, cache_resolution_m=100.0)

        kwargs = dict(
            num_aps=6, num_clients=5, duration_us=30e6, seed=7, mic_events=3
        )
        baseline = simulate_roaming(fresh_db(), **kwargs)
        with TraceRecorder(tmp_path / "roam.jsonl.gz") as recorder:
            recorded = simulate_roaming(
                fresh_db(), recorder=recorder, **kwargs
            )
        assert recorded == baseline
        assert len(read_trace(tmp_path / "roam.jsonl.gz")[1]) > 0

        city_base = simulate_citywide(
            fresh_db(), num_aps=6, duration_us=30e6, seed=7, mic_events=3
        )
        with TraceRecorder(tmp_path / "city.jsonl.gz") as recorder:
            city_rec = simulate_citywide(
                fresh_db(),
                num_aps=6,
                duration_us=30e6,
                seed=7,
                mic_events=3,
                recorder=recorder,
            )
        assert city_rec == city_base
        _, city_events = read_trace(tmp_path / "city.jsonl.gz")
        kinds = {e.kind for e in city_events}
        assert kinds == {"mic", "query"}


class TestEngineParity:
    def test_scalar_and_vector_traces_byte_identical(self, tmp_path):
        pytest.importorskip("numpy")
        scalar = tmp_path / "scalar.jsonl.gz"
        vector = tmp_path / "vector.jsonl.gz"
        record_storm(scalar, engine="scalar")
        record_storm(vector, engine="vector")
        assert scalar.read_bytes() == vector.read_bytes()


class TestReplayDeterminism:
    @pytest.mark.parametrize("engine", ["scalar", "vector"])
    def test_replay_reproduces_report_and_trace(self, tmp_path, engine):
        if engine == "vector":
            pytest.importorskip("numpy")
        source_path = tmp_path / "source.jsonl.gz"
        source_report = record_storm(source_path, engine=engine)

        workload = TraceWorkload.open(source_path)
        assert len(workload) == source_report["storm_queries"]

        replay_path = tmp_path / "replay.jsonl.gz"
        recorder = TraceRecorder(replay_path)
        replay_report = run_storm(
            recorder=recorder, storm_source=workload, engine=engine
        )
        recorder.close()

        assert replay_report == source_report
        assert replay_path.read_bytes() == source_path.read_bytes()

    def test_replay_from_columnar_archive(self, tmp_path):
        pytest.importorskip("numpy")
        from repro.traces.columnar import to_columnar

        source_path = tmp_path / "source.jsonl.gz"
        source_report = record_storm(source_path)
        npz = tmp_path / "source.npz"
        to_columnar(source_path, npz)
        replay_report = run_storm(storm_source=TraceWorkload.open(npz))
        assert replay_report == source_report

    def test_workload_requires_coordinates(self):
        bare = [TraceEvent(t_us=0.0, kind="query", subject=0)]
        with pytest.raises(SimulationError, match="no coordinates"):
            TraceWorkload(bare)


class TestEventCoverage:
    def test_all_kinds_emitted_across_push_modes(self, tmp_path):
        # push=True exercises push refreshes; push=False lets clients
        # drift into ground-truth violations between polls.  Between
        # the two recordings every schema kind appears.  (Seed 12: the
        # paths of the default seed 11 happen to reach no violation.)
        rich = dict(
            seed=12,
            num_clients=30,
            duration_us=160e6,
            offered_qps=20.0,
            mic_events=10,
        )
        record_storm(tmp_path / "push.jsonl.gz", push=True, **rich)
        record_storm(tmp_path / "pull.jsonl.gz", push=False, **rich)
        kinds = collections.Counter()
        for name in ("push.jsonl.gz", "pull.jsonl.gz"):
            _, events = read_trace(tmp_path / name)
            kinds.update(e.kind for e in events)
        assert set(kinds) == {
            "mic",
            "push",
            "query",
            "recheck",
            "handoff",
            "violation_open",
            "violation_close",
        }


class TestTraceDiffTool:
    def run_diff(self, *paths):
        return subprocess.run(
            [sys.executable, str(TRACE_DIFF), *map(str, paths)],
            capture_output=True,
            text=True,
        )

    def test_identical_traces_exit_zero(self, tmp_path):
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        record_storm(a)
        record_storm(b)
        result = self.run_diff(a, b)
        assert result.returncode == 0, result.stdout + result.stderr
        assert "identical" in result.stdout

    def test_diverged_traces_exit_nonzero(self, tmp_path):
        a, b = tmp_path / "a.jsonl.gz", tmp_path / "b.jsonl.gz"
        record_storm(a, seed=11)
        record_storm(b, seed=12)
        result = self.run_diff(a, b)
        assert result.returncode == 1, result.stdout + result.stderr
        assert "delta" in result.stdout
