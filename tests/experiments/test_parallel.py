"""Tests for the parallel sweep runner, result aggregation, and caching."""

import pytest

from repro.experiments import (
    BackgroundSpec,
    ExperimentSpec,
    ParallelRunner,
    ResultCache,
    ScenarioSpec,
    mean_by,
    summarize,
    sweep_seeds,
)

FIVE_FREE = tuple(range(5, 10))


def quick_spec(kind="static", **scenario_overrides) -> ExperimentSpec:
    defaults = dict(
        free_indices=FIVE_FREE,
        num_channels=30,
        backgrounds=(BackgroundSpec(5, 30_000.0),),
        duration_us=200_000.0,
        warmup_us=50_000.0,
        seed=1,
    )
    defaults.update(scenario_overrides)
    scenario = ScenarioSpec(**defaults)
    if kind == "static":
        return ExperimentSpec(scenario, kind="static", channel=(7, 10.0))
    return ExperimentSpec(scenario, kind=kind)


class TestSweepSeeds:
    def test_deterministic_and_distinct(self):
        assert sweep_seeds(2009, 8) == sweep_seeds(2009, 8)
        assert len(set(sweep_seeds(2009, 8))) == 8
        assert sweep_seeds(2009, 8) != sweep_seeds(2010, 8)

    def test_prefix_stable(self):
        # Growing a sweep keeps the already-computed cells' seeds.
        assert sweep_seeds(5, 10)[:4] == sweep_seeds(5, 4)


class TestGridExpansion:
    def test_specs_outer_seeds_inner(self):
        specs = [quick_spec(), quick_spec(kind="whitefi")]
        grid = ParallelRunner.expand_grid(specs, seeds=(11, 22))
        assert [s.scenario.seed for s in grid] == [11, 22, 11, 22]
        assert [s.kind for s in grid] == ["static", "static", "whitefi", "whitefi"]

    def test_no_seeds_runs_specs_verbatim(self):
        spec = quick_spec()
        assert ParallelRunner.expand_grid(spec) == [spec]


class TestParallelSequentialEquivalence:
    def test_byte_identical_results_discovery_kind(self):
        spec = ExperimentSpec(
            ScenarioSpec(free_indices=tuple(range(4, 12)), seed=5),
            kind="discovery",
            discovery_algorithm="j-sift",
        )
        seeds = sweep_seeds(13, 3)
        sequential = ParallelRunner(max_workers=1).run_grid(spec, seeds)
        parallel = ParallelRunner(max_workers=4).run_grid(spec, seeds)
        assert [r.to_json() for r in sequential] == [
            r.to_json() for r in parallel
        ]
        assert all(r.metric("discovery_succeeded") for r in sequential)

    def test_byte_identical_results_sift_kind(self):
        spec = ExperimentSpec(
            ScenarioSpec(free_indices=FIVE_FREE, seed=5),
            kind="sift",
            sift_width_mhz=10.0,
            sift_rate_mbps=0.5,
            sift_num_packets=15,
        )
        seeds = sweep_seeds(17, 3)
        sequential = ParallelRunner(max_workers=1).run_grid(spec, seeds)
        parallel = ParallelRunner(max_workers=4).run_grid(spec, seeds)
        assert [r.to_json() for r in sequential] == [
            r.to_json() for r in parallel
        ]
        assert summarize(sequential, metric="detection_rate") == summarize(
            parallel, metric="detection_rate"
        )

    def test_byte_identical_results(self):
        # The acceptance bar: N>=4 workers produce byte-identical
        # aggregated results to the in-process sequential fallback.
        spec = quick_spec()
        seeds = sweep_seeds(7, 3)
        sequential = ParallelRunner(max_workers=1).run_grid(spec, seeds)
        parallel = ParallelRunner(max_workers=4).run_grid(spec, seeds)
        assert [r.to_json() for r in sequential] == [
            r.to_json() for r in parallel
        ]
        assert summarize(sequential) == summarize(parallel)

    def test_results_in_grid_order(self):
        spec = quick_spec()
        seeds = sweep_seeds(3, 4)
        results = ParallelRunner(max_workers=4).run_grid(spec, seeds)
        assert [r.seed for r in results] == list(seeds)

    def test_negative_workers_raise(self):
        with pytest.raises(ValueError):
            ParallelRunner(max_workers=-1)


class TestResultCache:
    def test_cache_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path)
        spec = quick_spec()
        [result] = ParallelRunner(max_workers=1, cache=cache).run_grid(spec)
        assert spec.spec_hash in cache
        assert cache.get(spec.spec_hash) == result

    def test_second_sweep_fully_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(max_workers=1, cache=cache)
        spec = quick_spec()
        seeds = sweep_seeds(1, 2)
        first = runner.run_grid(spec, seeds)
        assert runner.last_execution_mode == "sequential"
        second = runner.run_grid(spec, seeds)
        assert runner.last_execution_mode == "cached"
        assert [r.to_json() for r in first] == [r.to_json() for r in second]

    def test_different_spec_misses_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        runner = ParallelRunner(max_workers=1, cache=cache)
        runner.run_grid(quick_spec())
        runner.run_grid(quick_spec(seed=2))
        assert runner.last_execution_mode == "sequential"

    def test_missing_entry_returns_none(self, tmp_path):
        assert ResultCache(tmp_path).get("deadbeef") is None


class TestAggregation:
    def test_summarize(self):
        results = ParallelRunner(max_workers=1).run_grid(
            quick_spec(), sweep_seeds(9, 3)
        )
        stats = summarize(results, metric="aggregate_mbps")
        assert stats.count == 3
        assert stats.minimum <= stats.mean <= stats.maximum
        assert stats.stddev >= 0

    def test_summarize_empty_raises(self):
        with pytest.raises(ValueError):
            summarize([])

    def test_mean_by_groups(self):
        specs = [quick_spec(), quick_spec(kind="whitefi")]
        results = ParallelRunner(max_workers=1).run_grid(
            specs, sweep_seeds(4, 2)
        )
        means = mean_by(results, key=lambda r: r.kind)
        assert set(means) == {"static", "whitefi"}
        assert all(v > 0 for v in means.values())


@pytest.mark.slow
@pytest.mark.skipif(
    (__import__("os").cpu_count() or 1) < 2,
    reason="wall-clock speedup needs more than one CPU",
)
def test_workers_beat_sequential_wall_clock():
    # On multi-core hosts the fan-out must pay for itself.  (Single-CPU
    # containers exercise only the byte-identical equivalence above.)
    # Workers are capped at the CPU count: more only contend for the
    # same cores.  Each side is timed as the best of three alternating
    # repetitions, so a busy moment on the host lands on both sides and
    # the minimum is each side's least-disturbed time.
    import os
    import time

    spec = quick_spec(
        kind="whitefi", duration_us=1_500_000.0, backgrounds=()
    )
    seeds = sweep_seeds(77, 4)
    workers = min(4, os.cpu_count())

    def timed(max_workers):
        start = time.perf_counter()
        results = ParallelRunner(max_workers=max_workers).run_grid(
            spec, seeds
        )
        return time.perf_counter() - start, [r.to_json() for r in results]

    sequential_s = parallel_s = float("inf")
    for _ in range(3):
        elapsed, sequential = timed(1)
        sequential_s = min(sequential_s, elapsed)
        elapsed, parallel = timed(workers)
        parallel_s = min(parallel_s, elapsed)
        assert sequential == parallel
    assert parallel_s < sequential_s, (parallel_s, sequential_s)


@pytest.mark.skipif(
    not hasattr(__import__("os"), "sched_setaffinity"),
    reason="CPU placement needs sched_setaffinity",
)
def test_worker_placement_leaves_affinity_unpinned():
    # The pool initializer moves worker k to one CPU and hands the full
    # affinity back, so a balancing scheduler can still move it.
    import multiprocessing
    import os

    from repro.experiments.parallel import _spread_worker

    before = os.sched_getaffinity(0)
    counter = multiprocessing.Value("i", 0)
    for _ in range(3):
        _spread_worker(counter, tuple(sorted(before)))
    assert counter.value == 3
    assert os.sched_getaffinity(0) == before


def test_corrupted_cache_entry_is_a_miss(tmp_path):
    spec = quick_spec()
    cache = ResultCache(tmp_path)
    # Plant the corruption inside the versioned entry directory the
    # cache actually reads from.
    cache.directory.mkdir(parents=True)
    entry = cache.directory / f"{spec.spec_hash}.json"
    entry.write_text("{corrupted!")
    runner = ParallelRunner(max_workers=1, cache=cache)
    [result] = runner.run_grid(spec)
    assert runner.last_execution_mode == "sequential"
    # The entry was overwritten with a good record.
    assert ResultCache(tmp_path).get(spec.spec_hash) == result
    assert "corrupted" not in entry.read_text()


def test_duplicate_grid_cells_share_one_execution(tmp_path):
    cache = ResultCache(tmp_path)
    spec = quick_spec()
    runner = ParallelRunner(max_workers=1, cache=cache)
    a, b = runner.run_grid([spec, spec])
    assert a.to_json() == b.to_json()
    # Only one entry was computed and cached.
    assert len(list(cache.directory.glob("*.json"))) == 1


def test_unwritable_cache_does_not_abort_sweep(tmp_path):
    # chmod tricks are unreliable under root; fail the write directly.
    class UnwritableCache(ResultCache):
        def put(self, result):
            raise OSError("disk full")

    runner = ParallelRunner(max_workers=1, cache=UnwritableCache(tmp_path))
    [result] = runner.run_grid(quick_spec())
    assert result.aggregate_mbps >= 0
    assert runner.last_execution_mode == "sequential"
