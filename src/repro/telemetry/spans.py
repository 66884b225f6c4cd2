"""Sim-clock distributed tracing: request-scoped span trees.

The metrics registry (:mod:`repro.telemetry.metrics`) says *that* p99
frontend latency is high; the trace recorder (:mod:`repro.traces`)
says *what* happened.  This module records *why a specific request was
slow*: a :class:`SpanRecorder` builds one parent→child span tree per
frontend request across the whole cluster tier — admission,
token-bucket wait, shed deferrals, per-shard batch fan-out, database
cache hit/miss and index scan, stale-store serves, and push fan-out —
and links latency-histogram buckets to example trace ids
(Prometheus-exemplar style), so a tail bucket resolves to the concrete
span tree that produced it.

Determinism is the same contract as everything else in the tree:

* **Ids are content-derived.**  A trace id is a 64-bit SplitMix64-style
  mix of the request's kind, its integer subject, and the float64 bits
  of its enqueue stamp, rendered as 16 hex digits — never wall clock,
  never ``id()`` — so the scalar and vector engines (which issue the
  identical request sequence) mint identical ids.  It comes in a
  Python-int form (:func:`_trace_id`, one trace's id) and a numpy
  ``uint64`` form for bursts (:func:`_trace_ids`), both on the one
  SplitMix64 step of :mod:`repro.sim.rng`; the two agree bit for bit.
  Span ids are
  per-trace sequence numbers assigned in a fixed tree-build order.
* **Sim-clock only.**  Every timestamp in a span is simulation time;
  the module never reads a wall clock (it lives outside the detlint
  wall-clock zone on purpose).
* **Observation only.**  Recording changes no report: a driver run
  with :data:`NULL_SPANS` is byte-identical to a pre-spans run, and a
  run with a recorder attached differs only by the ``"spans"`` table.

Sampling (the ``span_sample`` spec knob) is deterministic too:
``"off"`` records every trace, ``"head-N"`` keeps one in N by trace id
(its top 32 bits modulo N), and ``"tail"`` keeps only traces with a
nonzero enqueue→serve duration (the slow requests a tail investigation
wants).  The decision is taken first: the frontend hands the recorder
a whole burst (:meth:`SpanRecorder.requests`), and its trace ids, keep
mask, latency bucket counts and dropped count are array operations;
Python runs only to build the kept trees and to track shed requests
that are still waiting.  The latency bucket counts always cover *all*
served requests, so the p99 threshold is exact even under sampling;
only the kept trees are exported.
"""

from __future__ import annotations

import struct
import zlib
from bisect import bisect_left
from typing import Any, Callable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.sim.rng import mix64, mix64_array
from repro.telemetry.metrics import DEFAULT_LATENCY_BOUNDS_US

__all__ = [
    "NULL_SPANS",
    "NullSpans",
    "SPANS_MODES",
    "SPANS_SCHEMA",
    "SpanRecorder",
    "bucket_label",
    "critical_path",
    "iter_traces",
    "lookup_steps",
    "parse_span_sample",
    "path_self_times",
    "tail_attribution",
    "tail_bucket",
    "trace_spans",
]

#: Valid values of the ``spans`` experiment-spec knob.
SPANS_MODES = ("off", "on")

#: Version tag carried by every span table (schema evolution seam).
SPANS_SCHEMA = "repro.spans/v1"

#: Exemplar trace ids retained per latency bucket (first N distinct).
EXEMPLARS_PER_BUCKET = 4

#: The tail quantile :func:`tail_attribution` reports on.
TAIL_QUANTILE = 0.99


def parse_span_sample(sample: str | None) -> tuple:
    """Parse a ``span_sample`` knob value into a sampling mode.

    Returns ``("off",)``, ``("head", N)``, or ``("tail",)``; raises
    ``SimulationError`` on anything else.  ``None`` means "off"
    (record everything).
    """
    if sample is None or sample == "off":
        return ("off",)
    if sample == "tail":
        return ("tail",)
    if isinstance(sample, str) and sample.startswith("head-"):
        try:
            n = int(sample[len("head-"):])
        except ValueError:
            n = 0
        if n >= 1:
            return ("head", n)
    raise SimulationError(
        f"unknown span_sample {sample!r}; expected 'off', 'head-N' "
        "(N >= 1), or 'tail'"
    )


_MASK64 = (1 << 64) - 1


def _trace_id(req: str, subject: int, enqueue_us: float) -> str:
    """The trace id of (kind, subject, enqueue stamp), as 16 hex digits.

    The kind's CRC-32, the subject and the stamp's float64 bits fold in
    through one SplitMix64 step each; :func:`_trace_ids` is the same
    mix on arrays.
    """
    bits = int.from_bytes(struct.pack("<d", enqueue_us), "little")
    seed = mix64(zlib.crc32(req.encode()))
    return f"{mix64(mix64(seed ^ (subject & _MASK64)) ^ bits):016x}"


def _trace_ids(
    req: str, subjects: np.ndarray, enqueue_us: np.ndarray
) -> np.ndarray:
    """:func:`_trace_id` as uint64 over int64 subjects and float64 stamps."""
    subj = np.asarray(subjects, dtype=np.int64).view(np.uint64)
    bits = np.ascontiguousarray(enqueue_us, dtype=np.float64).view(np.uint64)
    seed = np.uint64(mix64(zlib.crc32(req.encode())))
    return mix64_array(mix64_array(seed ^ subj) ^ bits)


def _fmt_bound(bound: float) -> str:
    """Histogram bound rendered the way the Prometheus exporter does."""
    if bound == int(bound) and abs(bound) < 1e15:
        return str(int(bound))
    return repr(bound)


def bucket_label(bounds: Sequence[float], index: int) -> str:
    """The exemplar-map key for latency bucket *index* (``le`` style)."""
    if index < len(bounds):
        return f"le_{_fmt_bound(bounds[index])}"
    return "le_inf"


def lookup_steps(
    hit: bool, candidates: int, site: str, shard: bool = False
) -> tuple:
    """The serve-side step tree for one database cell lookup.

    ``db_lookup`` → ``cache_hit``, or ``db_lookup`` → ``cache_miss`` →
    ``index_scan`` (carrying the spatial-index candidate count); with
    ``shard=True`` the chain is wrapped in a ``shard_lookup`` span (the
    frontend's per-shard fan-out hop).
    """
    if hit:
        leaf = ("cache_hit", site, {}, ())
    else:
        leaf = (
            "cache_miss",
            site,
            {},
            (("index_scan", site, {"candidates": int(candidates)}, ()),),
        )
    chain = ("db_lookup", site, {}, (leaf,))
    if shard:
        return ("shard_lookup", site, {}, (chain,))
    return chain


class SpanRecorder:
    """Records deterministic span trees across the cluster tier.

    Sampling is decided first: a burst's trace ids, keep mask, latency
    buckets and dropped count are array operations, and a span tree is
    built only for a kept trace.

    Args:
        sample: the ``span_sample`` knob value — ``None``/``"off"``
            (keep every trace), ``"head-N"`` (keep one in N by trace-id
            hash), or ``"tail"`` (keep only traces with nonzero
            duration).
        latency_bounds: histogram bucket bounds the exemplar links and
            tail attribution use; must match the latency histogram the
            frontend observes into (the shared default does).
    """

    enabled = True

    def __init__(
        self,
        sample: str | None = None,
        latency_bounds: Sequence[float] = DEFAULT_LATENCY_BOUNDS_US,
    ):
        self.sample = "off" if sample is None else str(sample)
        self._mode = parse_span_sample(sample)
        self._bounds = tuple(float(b) for b in latency_bounds)
        # Served-request latency counts per bucket (+Inf last), over
        # *all* serves — sampling never skews the tail threshold.
        self._latency_counts = np.zeros(len(self._bounds) + 1, dtype=np.int64)
        # Shed, not yet served requests: trace id -> shed_defer stamps.
        self._pending: dict[int, list[float]] = {}
        # Finished traces as (root_t0, trace_id, spans): sorted at
        # snapshot so engines that finish traces in different interleavings
        # would still export identical tables.
        self._done: list[tuple[float, str, list[dict[str, Any]]]] = []
        self._dropped = 0
        self._exemplars: dict[int, list[str]] = {}

    def _keep(self, ids: np.ndarray, durations: np.ndarray) -> np.ndarray:
        """The sampling decision per trace, from its id and duration."""
        mode = self._mode
        if mode[0] == "off":
            return np.ones(len(ids), dtype=bool)
        if mode[0] == "head":
            return (ids >> np.uint64(32)) % np.uint64(mode[1]) == 0
        return durations > 0

    # -- frontend bursts -----------------------------------------------------

    def requests(
        self,
        req: str,
        subjects: np.ndarray,
        enqueue_us: Sequence[float] | None,
        t_us: float,
        admitted: int,
        served: np.ndarray,
        steps_of: Callable[[int], Sequence[tuple]],
    ) -> None:
        """Record one frontend burst of *req* requests served at *t_us*.

        Request ``i`` has identity ``(req, subjects[i], enqueue_us[i])``
        (``enqueue_us`` None: enqueued at *t_us*); the identities of
        one burst are distinct.  The first *admitted* requests were
        admitted; each later one was shed, which records a
        ``shed_defer`` attempt at *t_us*.  A shed request that is not
        *served* stays open; a retry with the same identity lands back
        in its trace, so its defers accumulate until it serves.

        Every served request observes its enqueue→serve duration into
        the latency bucket counts.  A served request whose trace is
        kept gets its tree — root ``request`` spanning enqueue→serve, a
        ``queue_wait`` child over the same window carrying the
        zero-duration ``shed_defer`` attempts, then the serve-side
        ``steps_of(i)`` chains at the serve instant — and links an
        exemplar.  Trees are built in request order, and only for kept
        traces.
        """
        subjects = np.asarray(subjects, dtype=np.int64)
        n = len(subjects)
        stamps = (
            np.full(n, t_us, dtype=np.float64)
            if enqueue_us is None
            else np.asarray(enqueue_us, dtype=np.float64)
        )
        served = np.asarray(served, dtype=bool)
        ids = _trace_ids(req, subjects, stamps)
        latency = t_us - stamps
        buckets = np.searchsorted(self._bounds, latency, side="left")
        self._latency_counts += np.bincount(
            buckets[served], minlength=len(self._latency_counts)
        )
        keep = served & self._keep(ids, latency)
        kept = np.flatnonzero(keep).tolist()
        self._dropped += int(np.count_nonzero(served)) - len(kept)
        pending = self._pending
        earlier: dict[int, list[float]] = {}
        if pending:
            for tid in sorted(pending.keys() & set(ids[served].tolist())):
                earlier[tid] = pending.pop(tid)
        for tid in ids[admitted:][~served[admitted:]].tolist():
            pending.setdefault(tid, []).append(t_us)
        if not kept:
            return
        if isinstance(enqueue_us, np.ndarray):
            enqueue_us = enqueue_us.tolist()
        for i in kept:
            tid = int(ids[i])
            trace_id = f"{tid:016x}"
            t0 = t_us if enqueue_us is None else enqueue_us[i]
            defers = earlier.get(tid, [])
            if i >= admitted:
                defers = defers + [t_us]
            attrs = {
                "req": req,
                "subject": int(subjects[i]),
                "latency_us": t_us - t0,
            }
            self._record(
                trace_id, "request", "frontend", t0, t_us, attrs,
                steps_of(i), defers,
            )
            self._link(int(buckets[i]), trace_id)

    def _link(self, bucket: int, trace_id: str) -> None:
        """Keep *trace_id* as an exemplar of latency *bucket* (the
        first few distinct ones)."""
        exemplars = self._exemplars.setdefault(bucket, [])
        if len(exemplars) < EXEMPLARS_PER_BUCKET and trace_id not in exemplars:
            exemplars.append(trace_id)

    # -- zero-duration trees (mic registrations, direct-db lookups) ----------

    def trees(
        self,
        kind: str,
        req: str,
        subjects: np.ndarray,
        t_us: float,
        site: str,
        steps_of: Callable[[int], Sequence[tuple]],
        served: bool = False,
    ) -> None:
        """Record one complete zero-duration tree per subject at *t_us*.

        Used for work that begins and ends inside one call today: a
        burst of direct database lookups on the roaming path, or one
        mic registration's invalidate and push fan-out (subject
        ``subjects[i]`` with steps ``steps_of(i)``).  Trees are built
        only for kept traces, in subject order; :func:`_trace_id` of
        ``(req, subjects[i], t_us)`` is each tree's id.

        With *served*, each subject is a request served on the spot (a
        direct database lookup): as in :meth:`requests`, every one
        observes its zero enqueue→serve duration into the latency
        bucket counts, and each kept tree's root carries
        ``latency_us`` and links an exemplar.
        """
        subjects = np.asarray(subjects, dtype=np.int64)
        n = len(subjects)
        ids = _trace_ids(req, subjects, np.full(n, t_us, dtype=np.float64))
        kept = np.flatnonzero(self._keep(ids, np.zeros(n))).tolist()
        self._dropped += n - len(kept)
        if served:
            bucket = int(np.searchsorted(self._bounds, 0.0, side="left"))
            self._latency_counts[bucket] += n
        for i in kept:
            trace_id = f"{int(ids[i]):016x}"
            attrs = {"req": req, "subject": int(subjects[i])}
            if served:
                attrs["latency_us"] = 0.0
            self._record(
                trace_id, kind, site, t_us, t_us, attrs, steps_of(i)
            )
            if served:
                self._link(bucket, trace_id)

    # -- tree building -------------------------------------------------------

    def _record(
        self,
        trace_id: str,
        kind: str,
        site: str,
        t0_us: float,
        t_us: float,
        attrs: Mapping[str, Any],
        steps: Sequence[tuple],
        defers: Sequence[float] | None = None,
    ) -> None:
        """Build and keep one trace: a root *kind* span over
        [*t0_us*, *t_us*]; for a frontend request (*defers* given), a
        ``queue_wait`` child over the same window carrying one
        zero-duration ``shed_defer`` per stamp; then the *steps* chains
        at *t_us*."""
        spans: list[dict[str, Any]] = []
        self._add(spans, trace_id, None, kind, site, t0_us, t_us, attrs)
        if defers is not None:
            self._add(spans, trace_id, 0, "queue_wait", site, t0_us, t_us, {})
            for at_us in defers:
                self._add(spans, trace_id, 1, "shed_defer", site, at_us, at_us, {})
        for step in steps:
            self._attach(spans, trace_id, 0, step, t_us)
        self._done.append((t0_us, trace_id, spans))

    def _add(
        self,
        spans: list[dict[str, Any]],
        trace_id: str,
        parent: int | None,
        kind: str,
        site: str,
        t0_us: float,
        t1_us: float,
        attrs: Mapping[str, Any],
    ) -> int:
        span_id = len(spans)
        spans.append(
            {
                "trace": trace_id,
                "span": span_id,
                "parent": parent,
                "kind": kind,
                "site": site,
                "t0_us": float(t0_us),
                "t1_us": float(t1_us),
                "attrs": dict(attrs),
            }
        )
        return span_id

    def _attach(
        self,
        spans: list[dict[str, Any]],
        trace_id: str,
        parent: int,
        step: tuple,
        t_us: float,
    ) -> None:
        kind, site, attrs, children = step
        span_id = self._add(
            spans, trace_id, parent, kind, site, t_us, t_us, attrs
        )
        for child in children:
            self._attach(spans, trace_id, span_id, child, t_us)

    # -- export --------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The span table: a sorted, JSON-plain view of every kept trace.

        Traces order by (root start, trace id) and spans within a trace
        by span id, so any two runs that recorded the same trees export
        byte-identical tables regardless of finish interleaving.
        """
        spans: list[dict[str, Any]] = []
        for _, _, trace in sorted(self._done, key=lambda e: (e[0], e[1])):
            spans.extend(trace)
        exemplars = {
            bucket_label(self._bounds, bucket): list(trace_ids)
            for bucket, trace_ids in sorted(self._exemplars.items())
        }
        return {
            "schema": SPANS_SCHEMA,
            "sample": self.sample,
            "latency_bounds": list(self._bounds),
            "latency_counts": self._latency_counts.tolist(),
            "traces": len(self._done),
            "dropped": self._dropped,
            "unserved": len(self._pending),
            "exemplars": exemplars,
            "spans": spans,
        }


class NullSpans:
    """The span off-switch substituted for ``spans=None``.

    The object is only the off-switch: every hook site guards on
    ``enabled`` before it builds span arguments, so nothing else is
    needed here.
    """

    enabled = False


#: Shared no-op instance.
NULL_SPANS = NullSpans()


# -- analysis over exported tables ---------------------------------------------


def iter_traces(
    table: Mapping[str, Any],
) -> Iterator[tuple[str, list[dict[str, Any]]]]:
    """Group a table's span list into (trace_id, spans) runs, in table
    order.

    Tables keep each trace contiguous with the root span first, so one
    linear pass suffices.
    """
    current: list[dict[str, Any]] = []
    current_id = None
    for span in table["spans"]:
        if span["trace"] != current_id:
            if current:
                yield current_id, current
            current_id = span["trace"]
            current = []
        current.append(span)
    if current:
        yield current_id, current


def trace_spans(
    table: Mapping[str, Any], trace_id: str
) -> list[dict[str, Any]]:
    """All spans of one trace, in span-id order (empty when unknown)."""
    for tid, spans in iter_traces(table):
        if tid == trace_id:
            return spans
    return []


def critical_path(spans: Sequence[Mapping[str, Any]]) -> list[dict[str, Any]]:
    """The root-to-leaf path following the longest child at each level.

    Ties break toward the lowest span id (the earliest-recorded child),
    so the path is deterministic even among zero-duration siblings.
    """
    if not spans:
        return []
    children: dict[int, list[Mapping[str, Any]]] = {}
    root = None
    for span in spans:
        if span["parent"] is None:
            root = span
        else:
            children.setdefault(span["parent"], []).append(span)
    if root is None:
        return []
    path = [dict(root)]
    node = root
    while True:
        kids = children.get(node["span"])
        if not kids:
            return path
        node = max(
            kids,
            key=lambda s: (s["t1_us"] - s["t0_us"], -s["span"]),
        )
        path.append(dict(node))


def path_self_times(
    path: Sequence[Mapping[str, Any]],
) -> list[tuple[str, float]]:
    """Per-kind exclusive time along a critical path.

    Each span's self time is its duration minus its on-path child's
    duration, so the self times sum exactly to the root's duration —
    the attribution invariant the tail report relies on.
    """
    out: list[tuple[str, float]] = []
    for i, span in enumerate(path):
        duration = span["t1_us"] - span["t0_us"]
        if i + 1 < len(path):
            child = path[i + 1]
            duration -= child["t1_us"] - child["t0_us"]
        out.append((span["kind"], duration))
    return out


def tail_bucket(
    counts: Sequence[int], quantile: float = TAIL_QUANTILE
) -> int | None:
    """The index of the latency bucket holding the *quantile* point of
    the per-bucket *counts* (None when nothing was counted)."""
    total = sum(counts)
    if total == 0:
        return None
    need = quantile * total
    cumulative = 0
    for index, count in enumerate(counts):
        cumulative += count
        if cumulative >= need:
            return index
    return len(counts) - 1


def tail_attribution(
    table: Mapping[str, Any], quantile: float = TAIL_QUANTILE
) -> dict[str, Any]:
    """Where tail-bucket requests spent their sim-time, by span kind.

    Finds the latency bucket containing the *quantile* point of the
    recorded latency distribution (all served requests, sampled or
    not), then sums critical-path self times per span kind over every
    *kept* trace whose duration lands in that bucket or above.

    Returns ``{"quantile", "threshold_le", "requests", "traces",
    "by_kind"}`` — ``threshold_le`` is the tail bucket's lower bound
    edge (``None`` for the +Inf bucket), ``requests`` counts all served
    requests in the tail buckets, ``traces`` the kept trees among them.
    """
    bounds = table.get("latency_bounds", [])
    counts = table.get("latency_counts", [])
    report: dict[str, Any] = {
        "quantile": quantile,
        "threshold_le": None,
        "requests": 0,
        "traces": 0,
        "by_kind": {},
    }
    tail = tail_bucket(counts, quantile)
    if tail is None:
        return report
    report["threshold_le"] = float(bounds[tail]) if tail < len(bounds) else None
    report["requests"] = int(sum(counts[tail:]))
    by_kind: dict[str, float] = {}
    kept = 0
    for _, spans in iter_traces(table):
        root = spans[0]
        latency = root["attrs"].get("latency_us")
        if latency is None:
            continue
        if bisect_left(bounds, latency) < tail:
            continue
        kept += 1
        for kind, self_us in path_self_times(critical_path(spans)):
            by_kind[kind] = by_kind.get(kind, 0.0) + self_us
    report["traces"] = kept
    report["by_kind"] = {kind: by_kind[kind] for kind in sorted(by_kind)}
    return report
