#!/usr/bin/env python3
"""Profile one vector-engine wsdb run: phases, metrics, exporters.

Builds a metro world directly (no experiment archive), runs the
columnar vector engine with every telemetry layer attached — the
sim-clock :class:`~repro.telemetry.MetricsRegistry` and
:class:`~repro.telemetry.SpanRecorder` plus the wall-clock
:class:`~repro.telemetry.PhaseProfiler` — and writes six artifacts:

* ``PREFIX.profile.json`` — per-phase wall-clock seconds and call
  counts (boot / spawn / advance / recheck-detect / batch-lookup /
  associate / compliance);
* ``PREFIX.profile-chrome.json`` — the same phase totals as a Chrome
  trace-event timeline (load in Perfetto / ``chrome://tracing``);
* ``PREFIX.metrics.json`` — the deterministic sim-clock snapshot
  (canonical JSON; identical across repeat runs of one spec);
* ``PREFIX.metrics.prom`` — the same snapshot in Prometheus text
  exposition format;
* ``PREFIX.spans.jsonl`` — the deterministic span table (meta header
  line + one span per line);
* ``PREFIX.spans-chrome.json`` — the span trees as Chrome trace
  events, one ``tid`` lane per trace.

A phase table (seconds, calls, share of profiled time) prints to
stdout.  ``make profile`` drives this for the 10k-client roaming run.
``python -m repro.report`` summarizes the metrics JSON and the span
JSONL (``--trace-id`` prints one trace's span tree).

Usage::

    python scripts/profile_run.py [--kind roaming|querystorm]
        [--clients N] [--aps N] [--duration-us US] [--seed N]
        [--out PREFIX]
"""

from __future__ import annotations

import argparse
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "src"))

from repro.telemetry import (  # noqa: E402
    MetricsRegistry,
    PhaseProfiler,
    SpanRecorder,
    write_metrics,
    write_spans,
)
from repro.wsdb.model import generate_metro  # noqa: E402

#: Matches the bench_scale dial: channels 0-11 carry TV incumbents.
FREE_INDICES = range(12, 30)
EXTENT_M = 3_000.0


def run(
    args: argparse.Namespace,
) -> tuple[MetricsRegistry, PhaseProfiler, SpanRecorder]:
    metro = generate_metro(FREE_INDICES, seed=args.seed, extent_m=EXTENT_M)
    telemetry = MetricsRegistry()
    profiler = PhaseProfiler()
    spans = SpanRecorder(sample=args.span_sample)
    if args.kind == "roaming":
        from repro.wsdb.mobility import simulate_roaming
        from repro.wsdb.service import WhiteSpaceDatabase

        simulate_roaming(
            WhiteSpaceDatabase(metro),
            num_aps=args.aps,
            num_clients=args.clients,
            duration_us=args.duration_us,
            seed=args.seed,
            mic_events=3,
            engine="vector",
            telemetry=telemetry,
            profiler=profiler,
            spans=spans,
        )
    else:
        from repro.wsdb.cluster.querystorm import simulate_querystorm
        from repro.wsdb.cluster.router import ShardRouter

        simulate_querystorm(
            ShardRouter(metro, num_shards=4),
            num_aps=args.aps,
            num_clients=args.clients,
            duration_us=args.duration_us,
            seed=args.seed,
            offered_qps=200.0,
            rate_limit_qps=500.0,
            push=True,
            mic_events=3,
            engine="vector",
            telemetry=telemetry,
            profiler=profiler,
            spans=spans,
        )
    return telemetry, profiler, spans


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="profile one vector-engine wsdb run"
    )
    parser.add_argument(
        "--kind", choices=("roaming", "querystorm"), default="roaming"
    )
    parser.add_argument("--clients", type=int, default=10_000)
    parser.add_argument("--aps", type=int, default=12)
    parser.add_argument("--duration-us", type=float, default=120e6)
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument(
        "--span-sample",
        default=None,
        help="span sampling policy: off (default), head-N, or tail",
    )
    parser.add_argument(
        "--out",
        default="benchmarks/results/profile",
        help="artifact path prefix (default: benchmarks/results/profile)",
    )
    args = parser.parse_args(argv)

    telemetry, profiler, spans = run(args)

    prefix = pathlib.Path(args.out)
    profile_path = pathlib.Path(f"{prefix}.profile.json")
    profile_chrome = pathlib.Path(f"{prefix}.profile-chrome.json")
    metrics_json = pathlib.Path(f"{prefix}.metrics.json")
    metrics_prom = pathlib.Path(f"{prefix}.metrics.prom")
    spans_jsonl = pathlib.Path(f"{prefix}.spans.jsonl")
    spans_chrome = pathlib.Path(f"{prefix}.spans-chrome.json")
    meta = {
        "kind": args.kind,
        "engine": "vector",
        "clients": args.clients,
        "aps": args.aps,
        "duration_us": args.duration_us,
        "seed": args.seed,
    }
    profiler.write(profile_path, meta=meta)
    profiler.write_chrome(profile_chrome, meta=meta)
    snapshot = telemetry.snapshot()
    write_metrics(snapshot, json_path=metrics_json, prom_path=metrics_prom)
    table = spans.snapshot()
    write_spans(table, jsonl_path=spans_jsonl, chrome_path=spans_chrome)

    totals = profiler.seconds()
    grand = sum(totals.values()) or 1.0
    print(
        f"profile: {args.kind} x {args.clients} clients, "
        f"{args.duration_us:g} us (vector engine)"
    )
    print(f"{'phase':<16} {'seconds':>10} {'share':>7}")
    for name, seconds in sorted(
        totals.items(), key=lambda kv: kv[1], reverse=True
    ):
        print(f"{name:<16} {seconds:>10.3f} {seconds / grand:>6.1%}")
    print(
        f"spans: {table['traces']} traces, {len(table['spans'])} spans "
        f"(sample={table['sample']}, dropped={table['dropped']})"
    )
    print(
        "artifacts: "
        + ", ".join(
            str(p)
            for p in (
                profile_path,
                profile_chrome,
                metrics_json,
                metrics_prom,
                spans_jsonl,
                spans_chrome,
            )
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
