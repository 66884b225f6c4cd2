"""A smoke run of ``benchmarks/bench_scale.py`` never writes the
checked-in trajectory ``BENCH_scale.json``.

``make bench-smoke`` runs the scale sweep at toy sizes; its entry goes
to a gitignored smoke-stem log beside the other smoke artifacts, so a
local smoke run leaves the tree clean and a smoke entry never becomes
the committed trend baseline.  The benchmark lives outside the package;
load it by path, in smoke mode, with its output roots redirected.
"""

import fnmatch
import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
BENCHMARKS = REPO_ROOT / "benchmarks"


def load_bench_scale(monkeypatch):
    monkeypatch.setenv("WHITEFI_BENCH_SMOKE", "1")
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    spec = importlib.util.spec_from_file_location(
        "bench_scale_smoke_under_test", BENCHMARKS / "bench_scale.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke_log_is_gitignored_smoke_stem(monkeypatch):
    bench_scale = load_bench_scale(monkeypatch)
    assert bench_scale.SMOKE
    smoke_log = bench_scale.trajectory_log(True)
    assert smoke_log != REPO_ROOT / "BENCH_scale.json"
    assert bench_scale.trajectory_log(False) == REPO_ROOT / "BENCH_scale.json"
    relative = smoke_log.resolve().relative_to(REPO_ROOT).as_posix()
    ignored = (REPO_ROOT / ".gitignore").read_text().split()
    assert any(fnmatch.fnmatch(relative, pattern) for pattern in ignored)


def test_smoke_run_never_writes_the_checked_in_log(monkeypatch, tmp_path):
    bench_scale = load_bench_scale(monkeypatch)
    root, results = tmp_path / "repo", tmp_path / "repo" / "benchmarks" / "results"
    root.mkdir()
    monkeypatch.setattr(bench_scale, "REPO_ROOT", root)
    monkeypatch.setattr(bench_scale, "RESULTS_DIR", results)
    monkeypatch.setattr(bench_scale, "PROFILE_PATH", results / "profile-smoke.json")
    tables = []
    bench_scale.test_scale_trajectory(lambda *args, **kwargs: tables.append(args))

    assert not (root / "BENCH_scale.json").exists()
    log = json.loads((results / "BENCH_scale-smoke.json").read_text())
    assert [e["smoke"] for e in log["entries"]] == [True]
    assert tables
