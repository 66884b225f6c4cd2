"""Summarize a metrics snapshot or a span table on the terminal.

Usage::

    python -m repro.report PATH [--top K] [--trace-id TID]

PATH is any artifact shape the telemetry layer writes:

* a **metrics snapshot JSON** (``repro.telemetry.write_metrics``:
  top-level ``counters`` / ``gauges`` / ``histograms`` / ``series``);
* a **span JSONL** file (``repro.telemetry.write_spans``: one meta
  header line, then one span per line);
* a **raw span table JSON** (``SpanRecorder.snapshot`` serialized);
* an **ExperimentResult JSON** (``ExperimentResult.to_json`` of a
  ``telemetry="on"`` and/or ``spans="on"`` run: the snapshot and the
  table are lifted out of its ``metrics`` payload, pair-list encoding
  and all).

A snapshot prints its counters, gauges, per-histogram count, mean and
p50/p99/p999, and a per-column summary of the tick series.  A span
table prints the top-K slowest traces (by root duration) with their
critical paths, the p99 tail attribution (per-kind critical-path
sim-time over the tail buckets) and the p99 bucket's exemplar trace
ids.  With ``--trace-id`` it prints one trace's span tree instead.
Exit status 0 on well-formed input, 1 on malformed input or an
unknown trace id.
"""

from __future__ import annotations

import argparse
import json
import pathlib
from typing import Any

from repro.telemetry.metrics import histogram_quantile
from repro.telemetry.spans import (
    SPANS_SCHEMA,
    bucket_label,
    critical_path,
    iter_traces,
    tail_attribution,
    tail_bucket,
    trace_spans,
)

__all__ = ["load", "main", "metrics_lines", "spans_lines", "tree_lines"]

SECTIONS = ("counters", "gauges", "histograms", "series")


def _as_dict(value: Any) -> Any:
    """Undo the result archive's pair-list encoding, recursively.

    ``ExperimentResult`` canonicalizes nested mappings into sorted
    ``[key, value]`` pair lists; a raw snapshot or table keeps plain
    objects.  Both normalize to dicts here.
    """
    if isinstance(value, dict):
        return {k: _as_dict(v) for k, v in value.items()}
    if isinstance(value, list):
        if value and all(
            isinstance(p, (list, tuple)) and len(p) == 2 and isinstance(p[0], str)
            for p in value
        ):
            return {k: _as_dict(v) for k, v in value}
        return [_as_dict(v) for v in value]
    return value


def load(path: pathlib.Path) -> tuple[dict | None, dict | None]:
    """``(metrics snapshot, span table)`` from any artifact shape; the
    one the artifact does not carry is None."""
    text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        # Span JSONL: a meta header line, then one span per line.
        lines = text.splitlines()
        data = json.loads(lines[0]) if lines else None
        if not isinstance(data, dict) or data.get("schema") != SPANS_SCHEMA:
            raise
        data["spans"] = [json.loads(line) for line in lines[1:] if line.strip()]
    snapshot = table = None
    if isinstance(data, dict) and "metrics" in data:
        payload = _as_dict(data["metrics"])
        if not isinstance(payload, dict) or not (
            "telemetry" in payload or "spans" in payload
        ):
            raise ValueError(
                "result record has no telemetry or spans payload (was the "
                'run made with telemetry="on" or spans="on"?)'
            )
        snapshot, table = payload.get("telemetry"), payload.get("spans")
    elif isinstance(data, dict) and "schema" in data:
        table = _as_dict(data)
    else:
        snapshot = _as_dict(data)
    if snapshot is not None:
        if not isinstance(snapshot, dict) or not set(snapshot) <= set(SECTIONS):
            raise ValueError(
                f"not a metrics snapshot: expected sections from {SECTIONS}"
            )
        snapshot = {section: snapshot.get(section, {}) for section in SECTIONS}
    if table is not None:
        if not isinstance(table, dict) or table.get("schema") != SPANS_SCHEMA:
            raise ValueError(f"not a span table (expected schema {SPANS_SCHEMA})")
        table.setdefault("spans", [])
    return snapshot, table


def metrics_lines(snapshot: dict) -> list[str]:
    """Counters, gauges, histogram quantiles and the tick series."""
    lines: list[str] = []
    if snapshot["counters"]:
        lines.append("counters:")
        for key, value in sorted(snapshot["counters"].items()):
            lines.append(f"  {key:<44} {value}")
    if snapshot["gauges"]:
        lines.append("gauges:")
        for key, value in sorted(snapshot["gauges"].items()):
            lines.append(f"  {key:<44} {value:g}")
    if snapshot["histograms"]:
        lines.append("histograms:")
        for key, hist in sorted(snapshot["histograms"].items()):
            count = hist["count"]
            mean = hist["sum"] / count if count else 0.0
            p50 = histogram_quantile(hist, 0.5)
            p99 = histogram_quantile(hist, 0.99)
            p999 = histogram_quantile(hist, 0.999)
            lines.append(
                f"  {key:<44} count={count} mean={mean:g} "
                f"p50<={p50:g} p99<={p99:g} p999<={p999:g}"
            )
    series = snapshot["series"]
    if series:
        ticks = len(next(iter(series.values())))
        lines.append(f"series ({ticks} ticks):")
        for col, values in sorted(series.items()):
            if col == "t_us":
                continue
            lines.append(
                f"  {col:<44} last={values[-1]:g} "
                f"max={max(values):g} total-span="
                f"{values[-1] - values[0]:g}"
            )
    if not lines:
        lines.append("(empty snapshot)")
    return lines


def spans_lines(table: dict, top: int) -> list[str]:
    """The top-K slowest traces, the tail attribution and the p99
    exemplar trace ids."""
    lines = [
        f"spans: {table['traces']} traces "
        f"(sample={table['sample']}, dropped={table['dropped']}, "
        f"unserved={table['unserved']})"
    ]
    ranked = sorted(
        (spans for _, spans in iter_traces(table)),
        key=lambda spans: (
            -(spans[0]["t1_us"] - spans[0]["t0_us"]),
            spans[0]["trace"],
        ),
    )
    lines.append(f"top {min(top, len(ranked))} slowest traces:")
    lines.append(
        f"  {'trace':<18} {'kind':<13} {'request':<16} "
        f"{'latency_us':>12}  critical path"
    )
    for spans in ranked[:top]:
        root = spans[0]
        attrs = root.get("attrs", {})
        label = f"{attrs.get('req', '?')}:{attrs.get('subject', '?')}"
        duration = root["t1_us"] - root["t0_us"]
        path = " > ".join(s["kind"] for s in critical_path(spans))
        lines.append(
            f"  {root['trace']:<18} {root['kind']:<13} "
            f"{label:<16} {duration:>12g}  {path}"
        )
    tail = tail_attribution(table)
    threshold = tail["threshold_le"]
    edge = "+Inf" if threshold is None else f"{threshold:g}"
    lines.append(
        f"tail attribution (p{int(tail['quantile'] * 100)}, "
        f"bucket le<={edge}us): {tail['requests']} requests, "
        f"{tail['traces']} recorded traces"
    )
    for kind, self_us in tail["by_kind"].items():
        lines.append(f"  {kind:<42} {self_us:g} us")
    bucket = tail_bucket(table.get("latency_counts", []), tail["quantile"])
    if bucket is not None:
        label = bucket_label(table.get("latency_bounds", []), bucket)
        ids = table.get("exemplars", {}).get(label, [])
        lines.append(
            f"p99 exemplars ({label}): "
            + (" ".join(ids) if ids else "(none recorded)")
        )
    return lines


def tree_lines(spans: list[dict]) -> list[str]:
    """One trace's span tree, indented preorder."""
    children: dict[int, list[dict]] = {}
    root = None
    for span in spans:
        if span["parent"] is None:
            root = span
        else:
            children.setdefault(span["parent"], []).append(span)
    if root is None:
        return ["(no root span)"]
    lines: list[str] = [f"trace {root['trace']}:"]

    def emit(span: dict, depth: int) -> None:
        duration = span["t1_us"] - span["t0_us"]
        window = (
            f"@{span['t0_us']:g}"
            if duration == 0
            else f"[{span['t0_us']:g}..{span['t1_us']:g}] (+{duration:g}us)"
        )
        attrs = " ".join(
            f"{key}={value}" for key, value in span.get("attrs", {}).items()
        )
        tail = f"  {attrs}" if attrs else ""
        lines.append(
            f"{'  ' * (depth + 1)}{span['kind']} {window} "
            f"site={span['site']}{tail}"
        )
        for child in children.get(span["span"], []):
            emit(child, depth + 1)

    emit(root, 0)
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.report",
        description="summarize a metrics snapshot or a span table",
    )
    parser.add_argument("path", type=pathlib.Path)
    parser.add_argument(
        "--top", type=int, default=10, help="slowest traces to list"
    )
    parser.add_argument(
        "--trace-id", help="pretty-print one trace's span tree instead"
    )
    args = parser.parse_args(argv)
    try:
        snapshot, table = load(args.path)
        if args.trace_id is not None:
            spans = [] if table is None else trace_spans(table, args.trace_id)
            if not spans:
                raise ValueError(f"unknown trace {args.trace_id!r}")
            lines = tree_lines(spans)
        else:
            lines = [] if snapshot is None else metrics_lines(snapshot)
            if table is not None:
                lines += spans_lines(table, args.top)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as err:
        print(f"report: {args.path}: {err}")
        return 1
    print(f"report: {args.path}")
    for line in lines:
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
