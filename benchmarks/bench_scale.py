"""The scale trajectory: 10k -> 1M roaming clients on the vector engine.

Unlike the figure benchmarks, this one measures the *simulator itself*:
how many client-ticks per second the roaming engine sustains as the
fleet grows.  The scalar per-client loop anchors the comparison at the
smallest size (where it is still affordable) and the columnar vector
engine (:mod:`repro.wsdb.vector`) carries the sweep up to a million
clients, with each run on a fresh database so engines and sizes never
share cache state.

Two artifacts come out of a run:

* the usual ``benchmarks/results/bench_scale`` table via
  ``record_table``;
* an **append-only trajectory log**, ``BENCH_scale.json`` at the repo
  root: one entry per invocation with per-run clients/sec, ticks/sec,
  and peak RSS, plus the scalar-vs-vector speedup and a headline
  clients/sec figure.  ``scripts/bench_trend.py`` compares the last two
  comparable entries and fails CI on a >20% throughput regression, so
  the perf trajectory is tracked across PRs, not rediscovered.

Each entry also carries an ``observability`` A/B row: the anchor-size
vector run repeated with the full sim-clock observability stack
attached (metrics registry + span recorder) against the plain anchor
run, recording both wall times and the overhead ratio — so the cost of
"telemetry on" is a tracked number, not folklore.  The observed run's
report must stay byte-identical to the plain run's (minus its
``spans`` payload), re-asserting the observation-only contract at
bench scale.

The sweep is wall-clock-budget-capped: the two smallest sizes always
run; each larger size runs only if its projected wall time (linear
extrapolation from the last run) still fits the budget
(``WHITEFI_BENCH_SCALE_BUDGET_S``, default 300 s).  Sizes the budget
rejects are still *recorded* — as ``{"skipped": "budget"}`` run stubs —
so every entry states its full intended sweep and the trend tool can
refuse to compare entries whose realized coverage differs.  Under
``WHITEFI_BENCH_SMOKE`` everything shrinks to a driver-rot check: the
entry is flagged ``smoke`` and appended to a gitignored smoke-stem log,
``benchmarks/results/BENCH_scale-smoke.json``, never to the checked-in
trajectory, so a local smoke run leaves the tree clean and a smoke
entry never becomes a committed trend baseline.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import platform
import resource
import time

import pytest

import repro
from repro.telemetry import MetricsRegistry, PhaseProfiler, SpanRecorder
from repro.wsdb.mobility import simulate_roaming
from repro.wsdb.model import generate_metro
from repro.wsdb.service import WhiteSpaceDatabase

from _runner import smoke_mode

pytest.importorskip("numpy")

SMOKE = smoke_mode()
REPO_ROOT = pathlib.Path(__file__).parent.parent
RESULTS_DIR = pathlib.Path(__file__).parent / "results"
# Smoke runs write under their own stem so they never clobber the
# checked-in paper-scale profile (same convention as record_table).
PROFILE_PATH = RESULTS_DIR / f"bench_scale-profile{'-smoke' if SMOKE else ''}.json"
BUDGET_ENV = "WHITEFI_BENCH_SCALE_BUDGET_S"

SEED = 2009
EXTENT_M = 3_000.0
NUM_APS = 12
MIC_EVENTS = 3
DURATION_US = 120e6  # 121 evaluated ticks at the default 1 s tick
FREE_INDICES = range(12, 30)  # dial: channels 0-11 carry TV sites

#: Vector-engine sweep sizes, ascending.  The first two always run;
#: the rest are admitted by the wall-clock budget.
VECTOR_SIZES = (200, 800) if SMOKE else (10_000, 100_000, 300_000, 1_000_000)
ALWAYS_RUN = 2
#: The scalar anchor (and the scalar-vs-vector equality check) runs at
#: the smallest vector size.
SCALAR_SIZE = VECTOR_SIZES[0]


def scale_budget_s() -> float:
    return float(os.environ.get(BUDGET_ENV) or 300.0)


def timed_run(engine: str, num_clients: int) -> tuple[dict, dict]:
    """One roaming run on a fresh database; returns (report, measurement).

    Vector runs carry a wall-clock :class:`PhaseProfiler`, so every
    measurement row states where its time went (``phases``: boot /
    spawn / advance / recheck-detect / batch-lookup / associate /
    compliance seconds).
    Profiling never touches the report — the scalar-vs-vector equality
    assertion below runs against profiled vector output.
    """
    metro = generate_metro(FREE_INDICES, seed=SEED, extent_m=EXTENT_M)
    db = WhiteSpaceDatabase(metro)
    profiler = PhaseProfiler() if engine == "vector" else None
    t0 = time.perf_counter()
    report = simulate_roaming(
        db,
        num_aps=NUM_APS,
        num_clients=num_clients,
        duration_us=DURATION_US,
        seed=SEED,
        mic_events=MIC_EVENTS,
        engine=engine,
        profiler=profiler,
    )
    wall_s = time.perf_counter() - t0
    ticks = int(DURATION_US // report["tick_us"]) + 1
    client_ticks = num_clients * ticks
    measurement = {
        "engine": engine,
        "clients": num_clients,
        "ticks": ticks,
        "wall_s": wall_s,
        "client_ticks": client_ticks,
        "clients_per_sec": client_ticks / wall_s,
        "ticks_per_sec": ticks / wall_s,
        # Linux ru_maxrss is KB; a process-wide high-water mark, so
        # within one invocation it is attributable to the largest run
        # so far, not to each run independently.
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if profiler is not None:
        measurement["phases"] = profiler.seconds()
    return report, measurement


def observed_run(num_clients: int) -> tuple[dict, dict]:
    """One vector run with the full sim-clock observability stack on.

    Metrics registry + span recorder attached (the ``telemetry="on"``
    + ``spans="on"`` configuration), timed the same way as
    :func:`timed_run` — the A/B counterpart to the plain anchor run.
    """
    metro = generate_metro(FREE_INDICES, seed=SEED, extent_m=EXTENT_M)
    db = WhiteSpaceDatabase(metro)
    spans = SpanRecorder()
    t0 = time.perf_counter()
    report = simulate_roaming(
        db,
        num_aps=NUM_APS,
        num_clients=num_clients,
        duration_us=DURATION_US,
        seed=SEED,
        mic_events=MIC_EVENTS,
        engine="vector",
        telemetry=MetricsRegistry(),
        spans=spans,
    )
    wall_s = time.perf_counter() - t0
    table = report["spans"]
    measurement = {
        "clients": num_clients,
        "observed_wall_s": wall_s,
        "traces": table["traces"],
        "spans": len(table["spans"]),
    }
    return report, measurement


def trajectory_log(smoke: bool) -> pathlib.Path:
    """The log an invocation appends its entry to: the checked-in
    ``BENCH_scale.json``, or for a smoke run its smoke-stem twin under
    ``benchmarks/results/`` (gitignored)."""
    if smoke:
        return RESULTS_DIR / "BENCH_scale-smoke.json"
    return REPO_ROOT / "BENCH_scale.json"


def append_log_entry(entry: dict) -> None:
    """Append one invocation entry to its trajectory log."""
    path = trajectory_log(entry["smoke"])
    if path.exists():
        log = json.loads(path.read_text())
    else:
        log = {"entries": []}
    log["entries"].append(entry)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(log, indent=2) + "\n")


def test_scale_trajectory(record_table):
    budget_s = scale_budget_s()
    started = time.perf_counter()
    runs: list[dict] = []

    # The scalar anchor — and the cross-engine ground truth: the
    # vector run of the same size must reproduce its report exactly.
    scalar_report, scalar_meas = timed_run("scalar", SCALAR_SIZE)
    runs.append(scalar_meas)

    vector_reports: dict[int, dict] = {}
    for i, size in enumerate(VECTOR_SIZES):
        if i >= ALWAYS_RUN and runs[-1]["engine"] == "vector":
            projected = runs[-1]["wall_s"] * size / runs[-1]["clients"]
            elapsed = time.perf_counter() - started
            if elapsed + projected > budget_s:
                print(
                    f"budget: skipping {size} clients "
                    f"(elapsed {elapsed:.0f}s + projected {projected:.0f}s "
                    f"> {budget_s:.0f}s)"
                )
                # Record what was *not* measured: stub rows keep the
                # intended sweep visible so bench_trend only compares
                # entries with the same realized coverage.
                runs.extend(
                    {"engine": "vector", "clients": s, "skipped": "budget"}
                    for s in VECTOR_SIZES[i:]
                )
                break
        report, meas = timed_run("vector", size)
        vector_reports[size] = report
        runs.append(meas)

    assert vector_reports, "no vector run fit the budget"
    assert vector_reports[SCALAR_SIZE] == scalar_report, (
        "vector engine diverged from the scalar report at "
        f"{SCALAR_SIZE} clients"
    )
    if not SMOKE:
        # The acceptance bar: the sweep reaches 100k clients and the
        # vector engine is >= 10x the scalar loop at the anchor size.
        assert 100_000 in vector_reports
        anchor = next(
            r for r in runs if r["engine"] == "vector"
            if r["clients"] == SCALAR_SIZE
        )
        speedup = anchor["clients_per_sec"] / scalar_meas["clients_per_sec"]
        assert speedup >= 10.0, f"vector speedup only {speedup:.1f}x"
    else:
        anchor = next(r for r in runs if r["engine"] == "vector")
        speedup = anchor["clients_per_sec"] / scalar_meas["clients_per_sec"]

    # The observability A/B: the anchor-size vector run again with the
    # metrics registry + span recorder attached.  Overhead becomes a
    # tracked trajectory number, and the observation-only contract is
    # re-asserted: stripping the observability payloads must recover
    # the plain report byte-for-byte.
    anchor_meas = next(
        r
        for r in runs
        if r["engine"] == "vector" and r["clients"] == SCALAR_SIZE
    )
    observed_report, observed = observed_run(SCALAR_SIZE)
    stripped = {
        k: v
        for k, v in observed_report.items()
        if k not in ("telemetry", "spans")
    }
    assert stripped == vector_reports[SCALAR_SIZE], (
        "attaching telemetry+spans perturbed the report at "
        f"{SCALAR_SIZE} clients"
    )
    observability = {
        **observed,
        "plain_wall_s": anchor_meas["wall_s"],
        "overhead_ratio": observed["observed_wall_s"] / anchor_meas["wall_s"],
    }

    headline = max(
        (
            r
            for r in runs
            if r["engine"] == "vector" and not r.get("skipped")
        ),
        key=lambda r: r["clients"],
    )
    entry = {
        "created": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "version": repro.__version__,
        # Wall-clock throughput is only comparable on the same machine;
        # bench_trend never judges entries from different hosts.
        "host": platform.node() or "unknown",
        "smoke": SMOKE,
        "duration_us": DURATION_US,
        "runs": runs,
        "observability": observability,
        "speedup_vs_scalar": speedup,
        "headline_clients": headline["clients"],
        "headline_clients_per_sec": headline["clients_per_sec"],
    }
    append_log_entry(entry)

    # The standalone profile artifact: per-phase seconds for every
    # vector run, keyed by fleet size (CI uploads this next to the
    # bench table).
    PROFILE_PATH.parent.mkdir(parents=True, exist_ok=True)
    PROFILE_PATH.write_text(
        json.dumps(
            {
                "created": entry["created"],
                "version": repro.__version__,
                "smoke": SMOKE,
                "profiles": {
                    str(r["clients"]): r["phases"]
                    for r in runs
                    if r.get("engine") == "vector" and "phases" in r
                },
            },
            indent=2,
            sort_keys=True,
        )
        + "\n"
    )

    lines = [
        f"{'engine':>8} {'clients':>9} {'wall_s':>8} "
        f"{'clients/s':>12} {'ticks/s':>8} {'rss_mb':>8}"
    ]
    for r in runs:
        if r.get("skipped"):
            lines.append(
                f"{r['engine']:>8} {r['clients']:>9} "
                f"{'skipped (' + r['skipped'] + ')':>39}"
            )
            continue
        lines.append(
            f"{r['engine']:>8} {r['clients']:>9} {r['wall_s']:>8.2f} "
            f"{r['clients_per_sec']:>12.0f} {r['ticks_per_sec']:>8.1f} "
            f"{r['peak_rss_kb'] / 1024:>8.0f}"
        )
    lines.append(
        f"vector speedup at {SCALAR_SIZE} clients: {speedup:.1f}x; "
        f"headline {headline['clients_per_sec']:.0f} clients/s "
        f"at {headline['clients']} clients"
    )
    lines.append(
        f"observability overhead at {SCALAR_SIZE} clients: "
        f"{observability['plain_wall_s']:.2f}s plain -> "
        f"{observability['observed_wall_s']:.2f}s observed "
        f"({observability['overhead_ratio']:.2f}x, "
        f"{observability['traces']} traces / "
        f"{observability['spans']} spans)"
    )
    record_table("bench_scale", lines, data=entry)
