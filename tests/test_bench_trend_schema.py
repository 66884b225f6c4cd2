"""Row-schema validation tests for ``scripts/bench_trend.py``.

The trend checker validates every trajectory entry against the exact
key sets ``benchmarks/bench_scale.py`` writes before comparing any two
entries, so a drifted writer fails loudly at the first CI run.  The
script is stdlib-only and lives outside the package; load it by path.
"""

import importlib.util
import pathlib

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "bench_trend", REPO_ROOT / "scripts" / "bench_trend.py"
)
bench_trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_trend)


def measured_run(**overrides) -> dict:
    run = {
        "engine": "vector",
        "clients": 1000,
        "ticks": 100,
        "wall_s": 1.5,
        "client_ticks": 100_000,
        "clients_per_sec": 66_666.7,
        "ticks_per_sec": 66.7,
        "peak_rss_kb": 120_000,
    }
    run.update(overrides)
    return run


def entry(**overrides) -> dict:
    base = {
        "created": "2026-08-08T00:00:00Z",
        "version": "1.7.0",
        "host": "ci-runner-3",
        "smoke": False,
        "duration_us": 10_000_000.0,
        "runs": [measured_run()],
        "speedup_vs_scalar": 12.0,
        "headline_clients": 1000,
        "headline_clients_per_sec": 66_666.7,
    }
    base.update(overrides)
    return base


class TestValidEntries:
    def test_measured_run_passes(self):
        bench_trend.validate_entry(entry(), 0)

    def test_optional_phases_key_accepted(self):
        run = measured_run(phases={"advance": 0.1, "batch-lookup": 0.9})
        bench_trend.validate_entry(entry(runs=[run]), 0)

    def test_skipped_stub_row_passes(self):
        stub = {"engine": "vector", "clients": 100_000, "skipped": "budget"}
        bench_trend.validate_entry(entry(runs=[measured_run(), stub]), 0)

    def test_validate_log_walks_all_entries(self):
        bench_trend.validate_log([entry(), entry()])

    def test_observability_row_accepted(self):
        obs = {
            "clients": 1000,
            "observed_wall_s": 1.9,
            "plain_wall_s": 1.5,
            "overhead_ratio": 1.27,
            "spans": 4200,
            "traces": 900,
        }
        bench_trend.validate_entry(entry(observability=obs), 0)

    def test_entry_without_observability_still_valid(self):
        # Entries predating the A/B row stay valid without it.
        bench_trend.validate_entry(entry(), 0)


class TestRejectedEntries:
    def test_unknown_entry_key_named_in_error(self):
        with pytest.raises(bench_trend.SchemaError, match="surprise"):
            bench_trend.validate_entry(entry(surprise=1), 3)

    def test_missing_host_rejected(self):
        # Throughput only compares on one machine, so every entry must
        # say which machine measured it.
        bad = entry()
        del bad["host"]
        with pytest.raises(bench_trend.SchemaError, match="host"):
            bench_trend.validate_entry(bad, 0)

    def test_missing_entry_key_named_in_error(self):
        bad = entry()
        del bad["headline_clients"]
        with pytest.raises(bench_trend.SchemaError, match="headline_clients"):
            bench_trend.validate_entry(bad, 0)

    def test_error_names_the_entry_index(self):
        with pytest.raises(bench_trend.SchemaError, match="entry 5"):
            bench_trend.validate_entry(entry(surprise=1), 5)

    def test_unknown_run_key_rejected(self):
        run = measured_run(gpu_util=0.5)
        with pytest.raises(bench_trend.SchemaError, match="gpu_util"):
            bench_trend.validate_entry(entry(runs=[run]), 0)

    def test_missing_run_key_rejected(self):
        run = measured_run()
        del run["wall_s"]
        with pytest.raises(bench_trend.SchemaError, match="wall_s"):
            bench_trend.validate_entry(entry(runs=[run]), 0)

    def test_skipped_stub_with_extra_key_rejected(self):
        stub = {"engine": "vector", "clients": 1, "skipped": "budget", "x": 1}
        with pytest.raises(bench_trend.SchemaError):
            bench_trend.validate_entry(entry(runs=[stub]), 0)

    def test_empty_runs_rejected(self):
        with pytest.raises(bench_trend.SchemaError, match="non-empty"):
            bench_trend.validate_entry(entry(runs=[]), 0)

    def test_non_dict_entry_rejected(self):
        with pytest.raises(bench_trend.SchemaError, match="expected an object"):
            bench_trend.validate_entry(["not", "a", "dict"], 0)

    def test_observability_unknown_key_rejected(self):
        obs = {
            "clients": 1000,
            "observed_wall_s": 1.9,
            "plain_wall_s": 1.5,
            "overhead_ratio": 1.27,
            "spans": 4200,
            "traces": 900,
            "surprise": 1,
        }
        with pytest.raises(bench_trend.SchemaError, match="surprise"):
            bench_trend.validate_entry(entry(observability=obs), 0)

    def test_observability_missing_key_rejected(self):
        obs = {"clients": 1000}
        with pytest.raises(bench_trend.SchemaError, match="observability"):
            bench_trend.validate_entry(entry(observability=obs), 0)

    def test_observability_non_dict_rejected(self):
        with pytest.raises(bench_trend.SchemaError, match="expected an object"):
            bench_trend.validate_entry(entry(observability=[1, 2]), 0)


class TestComparablePair:
    def test_same_host_entries_compare(self):
        a, b = entry(host="vm"), entry(host="vm")
        assert bench_trend.comparable_pair([a, b]) == (a, b)

    def test_cross_host_entries_never_compare(self):
        # Wall-clock throughput from another machine is not a baseline.
        assert bench_trend.comparable_pair(
            [entry(host="fast-box"), entry(host="vm")]
        ) is None


class TestRepoLog:
    def test_checked_in_trajectory_log_is_valid(self):
        # The log at the repo root must always satisfy its own schema.
        import json

        path = REPO_ROOT / "BENCH_scale.json"
        if not path.exists():
            pytest.skip("no trajectory log checked in")
        bench_trend.validate_log(json.loads(path.read_text())["entries"])
