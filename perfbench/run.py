"""Run one benchmark workload; print its metrics as the last stdout line.

    python3 perfbench/run.py --workload roam-dense --seed 2009 --seconds 25 --trace 0

Run from anywhere inside a checkout: the program is imported from the
checkout's own ``src/`` (and nowhere else).  One process, one workload,
no thread or process fan-out.

``--trace 0`` measures the end-to-end metrics with tracing off: a few
set-up-only sessions, then whole sessions (same seed, so identical
reports, tick for tick) until ``--seconds`` is spent.  Set-up time and
the loop time behind both throughputs are each the fastest any
repetition ran each millisecond-long stretch of the work, summed over
the stretches (:func:`fastest_s`): the same work timed several times,
with a busy host's slow moments left out.
``--trace 1`` runs untraced sessions for about half the time, then one
session with every public callable of the traced modules wrapped
(see ``tracer.py`` / ``layers.py``), and prints the per-layer split;
its spans go to ``.perfbench_out/<workload>-seed<seed>.trace.json``
(Chrome trace-event format, opens in Perfetto).

Both modes gate correctness: conservation invariants on every report,
identical reports across repetitions (and traced vs untraced), and
scalar == vector at a reduced client count.  A failure prints
``"correct": false``, counts every request as unanswered, and exits 1.
The line before the result is a JSON record with host facts, the wall
and CPU seconds of every session, the report's sha256 and the
workload's measured shares.  ``attempted`` counts the session reports
checked plus the scalar-vs-vector pair, and ``failed`` those of them
that failed a check.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Session keys kept out of the record: the report, and the pieces
#: :func:`fastest_s` reads.
TIMES_ONLY = ("report", "setup_pieces", "loop_pieces")
#: Set-up-only sessions: at least this many, and more while they take
#: under SETUP_SHARE of the run.
SETUP_ONLY_RUNS = 3
SETUP_SHARE = 0.1
#: The grain at which :func:`fastest_s` takes minima over repetitions.
STRETCH_S = 1e-3


def import_program() -> None:
    """Put the checkout's ``src/`` first on the path and check it is used."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import the program from {src}: {exc}")
    if Path(repro.__file__).resolve().parent.parent != src:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not from {src}")


def host_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg_at_start": os.getloadavg(),
        "machine": platform.machine(),
    }


def measure(shape, seed: int, seconds: float, clock, workloads) -> tuple[list, list, float]:
    """Set-up-only sessions, then whole sessions until *seconds* are spent.

    Also returns the peak RSS (MB) once the first whole session is done:
    later sessions only re-allocate the same world, and reading the
    high-water mark there keeps it independent of how many fit.

    Successive sessions are pinned to the process's CPUs in turn: on a
    shared host one CPU is often slowed by a neighbour while another is
    not, and :func:`fastest_s` then finds each stretch's undisturbed
    time on whichever CPU had it.
    """
    allowed = os.sched_getaffinity(0)
    cpus = itertools.cycle(sorted(allowed))

    def session(run):
        cpu = next(cpus)
        os.sched_setaffinity(0, {cpu})
        gc.collect()
        return {**run(shape, seed, clock), "cpu": cpu}

    start = time.perf_counter()
    setups, runs = [], []
    try:
        while len(setups) < SETUP_ONLY_RUNS or time.perf_counter() - start < SETUP_SHARE * seconds:
            setups.append(session(workloads.setup_only))
        while True:
            runs.append(session(workloads.timed_run))
            if len(runs) == 1:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(r["wall_s"] for r in runs) > seconds:
                return setups, runs, peak_rss_mb
    finally:
        os.sched_setaffinity(0, allowed)


def fastest_s(pieces: list[np.ndarray]) -> float:
    """The fastest time of each stretch of work over *pieces*, summed.

    Each array is one repetition of the same work (a set-up or a loop)
    cut at the same checkpoints, so piece *i* is the same work in every
    array.  Pieces are grouped, by the first repetition's times, into
    stretches of about :data:`STRETCH_S`: a grain set in time, so it
    does not follow how often the program happens to pass a checkpoint.
    Each stretch's fastest time is the host's least-disturbed measure of
    it.  A repetition with another piece count failed the correctness
    gate and is left out.
    """
    first = pieces[0]
    same = np.array([p for p in pieces if len(p) == len(first)])
    begins = first.cumsum() - first
    stretch = np.floor(begins / STRETCH_S)
    starts = np.flatnonzero(np.diff(stretch, prepend=-1.0))
    return float(np.add.reduceat(same, starts, axis=1).min(axis=0).sum())


def traced_session(shape, seed: int, clock, workloads, layers, tracer_mod):
    """One session with every traced module wrapped; originals restored."""
    tracer = tracer_mod.Tracer(costs=tracer_mod.calibrate())
    tracer.instrument(
        layers.LAYERS.values(),
        counted=layers.COUNTED,
        untraced=layers.UNTRACED,
        watched=layers.WATCHED,
        binders=layers.binders(),
    )
    gc.collect()
    try:
        run = workloads.timed_run(shape, seed, clock)
    finally:
        tracer.restore()
    return tracer, run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import layers
    import tracer as tracer_mod
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    shape = workloads.WORKLOADS[args.workload]
    record = {"workload": shape.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "shape": vars(shape), "host": host_facts()}
    tracer_mod.self_test()

    clock = workloads.SessionClock()
    clock.install()
    try:
        if args.trace:
            budget = args.seconds / 2
            setups, runs, peak_rss_mb = measure(shape, args.seed, budget, clock, workloads)
            tracer, traced = traced_session(shape, args.seed, clock, workloads, layers, tracer_mod)
        else:
            setups, runs, peak_rss_mb = measure(shape, args.seed, args.seconds, clock, workloads)
        # One check per session report (its invariants, and its digest
        # against the first session's), plus the scalar-vs-vector pair.
        failures = []
        failed = 0
        reports = [r["report"] for r in runs]
        if args.trace:
            reports.append(traced["report"])
        digests = [workloads.digest(r) for r in reports]
        for i, (report, digest) in enumerate(zip(reports, digests)):
            bad = workloads.invariant_failures(report)
            if digest != digests[0]:
                bad.append(f"report {digest} differs from session 0's {digests[0]}")
            failures += [f"session {i}: {m}" for m in bad]
            failed += bool(bad)
        parity = workloads.parity_failures(shape, args.seed)
        failures += [f"parity: {m}" for m in parity]
        failed += bool(parity)
    finally:
        clock.uninstall()

    report = reports[0]
    attempted, answered = workloads.requests(report)
    correct = not failures
    record.update(
        sha256=digests[0],
        shares=workloads.shares(report),
        failures=failures,
        setup_only=[{k: s[k] for k in ("wall_s", "cpu_s", "cpu")} for s in setups],
        sessions=[{k: v for k, v in r.items() if k not in TIMES_ONLY} for r in runs],
    )
    if args.trace:
        agg = tracer.by_name()
        untraced_wall_s = statistics.median(r["wall_s"] for r in runs)
        metrics = layers.per_layer(
            agg, traced["report"], tracer.returns[layers.TICK], traced["wall_s"], untraced_wall_s
        )
        units = {name: spec[0] for name, spec in layers.LAYER_MAP.items()}
        trace_path = ROOT / ".perfbench_out" / f"{shape.name}-seed{args.seed}.trace.json"
        tracer.write_chrome(trace_path, {"workload": shape.name, "seed": args.seed})
        record.update(
            traced_session={k: v for k, v in traced.items() if k not in TIMES_ONLY},
            untraced_wall_s=untraced_wall_s,
            wrapper_costs_s=tracer.costs._asdict(),
            self_s_by_layer=layers.by_layer(agg, field=2),
            overhead_s_by_layer=layers.by_layer(agg, field=3),
            trace_file=str(trace_path.relative_to(ROOT)),
        )
    else:
        setup_s = fastest_s([s["setup_pieces"] for s in setups + runs])
        loop_s = fastest_s([r["loop_pieces"] for r in runs])
        record.update(fastest_setup_s=setup_s, fastest_loop_s=loop_s)
        metrics = {
            "setup_s": setup_s,
            "client_ticks_per_s": workloads.client_ticks(report) / loop_s,
            "requests_per_s": answered / loop_s,
            "peak_rss_mb": peak_rss_mb,
            "answered_frac": answered / attempted if correct else 0.0,
        }
        units = {"setup_s": "s", "client_ticks_per_s": "1/s", "requests_per_s": "1/s",
                 "peak_rss_mb": "MB", "answered_frac": "ratio"}

    print(json.dumps({"record": record}, sort_keys=True, default=repr))
    print(json.dumps({
        "correct": correct,
        "attempted": len(reports) + 1,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
