"""The sim-clock metrics registry: counters, gauges, histograms, series.

Everything in this module is clocked by **simulation time** and is
therefore deterministic: two runs of the same spec — scalar or vector
engine, parallel or sequential — produce byte-identical snapshots.
That determinism is a contract, exactly like the byte-identical report
contract the engines already honor, and it is what makes a metric
snapshot cacheable, diffable, and comparable across PRs.  Wall-clock
observation lives in :mod:`repro.telemetry.profiler` and never mixes
into a registry.

Design points:

* **Fixed histogram buckets.**  A :class:`Histogram` is created with an
  explicit, immutable bound tuple (defaults below), so bucket layout is
  part of the snapshot contract — p50/p99/p999 read off the same edges
  everywhere, and snapshots merge bucket-by-bucket.
* **Labeled series.**  ``registry.counter("wsdb_queries", shard=3)``
  names the series ``wsdb_queries{shard="3"}`` — already the Prometheus
  rendering, so the exporter never re-parses keys.
* **Mergeable snapshots.**  :func:`merge_snapshots` sums counters and
  histograms (gauges take the max — high-water semantics), which is how
  per-shard or per-run registries aggregate.
* **The null object.**  Drivers accept ``telemetry=None`` and substitute
  :data:`NULL_TELEMETRY`; every hook site guards on ``.enabled``, so a
  run with telemetry off executes the exact pre-existing code path and
  its report stays byte-identical.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from math import ceil
from typing import Any, Mapping

import numpy as np

from repro.errors import SimulationError

__all__ = [
    "Counter",
    "DEFAULT_BATCH_BOUNDS",
    "DEFAULT_LATENCY_BOUNDS_US",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "NullTelemetry",
    "TELEMETRY_MODES",
    "histogram_quantile",
    "merge_snapshots",
    "metric_key",
]

#: The values the ``telemetry`` experiment-spec knob accepts.  "off"
#: (and the None default) runs the byte-identical pre-telemetry path;
#: "on" attaches a fresh :class:`MetricsRegistry` to the run and adds a
#: ``telemetry`` snapshot to the report.
TELEMETRY_MODES = ("off", "on")

#: Default request-latency bucket bounds (simulation microseconds).
#: The sub-tick edges are groundwork for the ROADMAP's async service
#: tier; today's synchronous frontend serves within the tick, so
#: admitted requests land in the first bucket and deferred re-checks
#: land on tick multiples.
DEFAULT_LATENCY_BOUNDS_US = (
    0.0,
    1_000.0,
    10_000.0,
    100_000.0,
    1_000_000.0,
    2_000_000.0,
    5_000_000.0,
    15_000_000.0,
    60_000_000.0,
    300_000_000.0,
)

#: Default batch-size bucket bounds (requests per frontend burst).
DEFAULT_BATCH_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 1024.0)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*\Z")


def metric_key(name: str, labels: Mapping[str, Any]) -> str:
    """The canonical series key: Prometheus-rendered name + labels.

    Labels sort by key, so one logical series always renders to one
    string — the property flat snapshot dicts and the exporter rely on.
    """
    if not _NAME_RE.match(name):
        raise SimulationError(f"invalid metric name {name!r}")
    if not labels:
        return name
    inner = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{inner}}}"


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise SimulationError(
                f"counters only increase; got inc({amount!r})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (last write wins)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Fixed-bound bucket counts plus sum/count.

    ``bounds`` are inclusive upper edges (Prometheus ``le`` semantics);
    one implicit overflow bucket catches everything above the last
    bound.  Counts are stored per-bucket (non-cumulative); the exporter
    renders the cumulative ``le`` form.
    """

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BOUNDS_US):
        bounds = tuple(float(b) for b in bounds)
        if not bounds or list(bounds) != sorted(set(bounds)):
            raise SimulationError(
                f"histogram bounds must be strictly increasing, got {bounds!r}"
            )
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def observe_many(self, values: np.ndarray) -> None:
        """:meth:`observe` each of *values* in order, as array steps.

        The sum is accumulated left to right from the current sum
        (``np.cumsum``, not ``np.sum``'s pairwise order), so it is the
        same float as the one-at-a-time loop.
        """
        values = np.asarray(values, dtype=np.float64)
        if not len(values):
            return
        added = np.bincount(
            np.searchsorted(self.bounds, values, side="left"),
            minlength=len(self.counts),
        )
        self.counts = [a + b for a, b in zip(self.counts, added.tolist())]
        self.sum = float(np.cumsum(np.concatenate(([self.sum], values)))[-1])
        self.count += len(values)


def histogram_quantile(snapshot: Mapping[str, Any], q: float) -> float:
    """The *q*-quantile upper bound of one snapshot histogram entry.

    Reads the ``{"bounds", "counts", "count"}`` plain-data form.  The
    answer is the inclusive upper edge of the bucket holding the
    quantile rank — the conventional histogram-quantile estimate; the
    overflow bucket reports ``inf``.  An empty histogram reports 0.0
    (a fleet that was never asked has no latency, not an error — the
    zero-denominator contract the stats ratios also follow).
    """
    if not 0.0 <= q <= 1.0:
        raise SimulationError(f"quantile must be in [0, 1], got {q!r}")
    total = snapshot["count"]
    if not total:
        return 0.0
    rank = max(1, min(total, ceil(q * total)))
    seen = 0
    for bound, count in zip(snapshot["bounds"], snapshot["counts"]):
        seen += count
        if seen >= rank:
            return float(bound)
    return float("inf")


class MetricsRegistry:
    """A deterministic, sim-clock metrics registry with tick series.

    The registry holds three metric families (:class:`Counter`,
    :class:`Gauge`, :class:`Histogram`) plus one **per-tick time
    series**: :meth:`sample_tick` appends one row per simulation tick
    (cumulative counts sampled at the tick fence, and instantaneous
    gauges like the open-violation count), stored columnar so the
    snapshot exports straight through the traces columnar machinery.
    """

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._series: dict[str, list[float]] = {}
        self._series_columns: tuple[str, ...] | None = None

    # -- metric families -----------------------------------------------------

    def counter(self, name: str, **labels: Any) -> Counter:
        key = metric_key(name, labels)
        metric = self._counters.get(key)
        if metric is None:
            metric = self._counters[key] = Counter()
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        key = metric_key(name, labels)
        metric = self._gauges.get(key)
        if metric is None:
            metric = self._gauges[key] = Gauge()
        return metric

    def histogram(
        self,
        name: str,
        bounds: tuple[float, ...] | None = None,
        **labels: Any,
    ) -> Histogram:
        key = metric_key(name, labels)
        metric = self._histograms.get(key)
        if metric is None:
            metric = self._histograms[key] = Histogram(
                DEFAULT_LATENCY_BOUNDS_US if bounds is None else bounds
            )
        elif bounds is not None and tuple(float(b) for b in bounds) != metric.bounds:
            raise SimulationError(
                f"histogram {key!r} already exists with bounds "
                f"{metric.bounds!r}; cannot re-declare as {tuple(bounds)!r}"
            )
        return metric

    # -- stats absorption ----------------------------------------------------

    def record_stats(self, prefix: str, stats: Mapping[str, Any]) -> None:
        """Publish one ``as_dict()``-style stats mapping.

        Integer values become ``{prefix}_{key}`` counters, floats become
        gauges (ratio properties like ``hit_rate``), and non-numeric
        entries are skipped — so every existing ``WsdbStats`` /
        ``FrontendStats`` / ``PushStats`` snapshot publishes without a
        per-field adapter.
        """
        for key in sorted(stats):
            value = stats[key]
            if isinstance(value, bool):
                self.counter(f"{prefix}_{key}").inc(int(value))
            elif isinstance(value, int):
                self.counter(f"{prefix}_{key}").inc(value)
            elif isinstance(value, float):
                self.gauge(f"{prefix}_{key}").set(value)

    # -- per-tick time series ------------------------------------------------

    def sample_tick(self, t_us: float, **columns: float) -> None:
        """Append one time-series row at tick fence *t_us*.

        The first call fixes the column set; later calls must supply
        exactly the same columns (a drifting column set would desync the
        columnar export).
        """
        names = tuple(sorted(columns))
        if self._series_columns is None:
            self._series_columns = names
            self._series["t_us"] = []
            for name in names:
                self._series[name] = []
        elif names != self._series_columns:
            raise SimulationError(
                f"tick sample columns {names!r} != established "
                f"{self._series_columns!r}"
            )
        self._series["t_us"].append(float(t_us))
        for name in names:
            # Coerced so scalar ints and numpy scalars land identically
            # (snapshot equality across engines is exact, not modulo
            # types).
            self._series[name].append(float(columns[name]))

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The whole registry as sorted plain JSON data."""
        return {
            "counters": {
                k: self._counters[k].value for k in sorted(self._counters)
            },
            "gauges": {k: self._gauges[k].value for k in sorted(self._gauges)},
            "histograms": {
                k: {
                    "bounds": list(h.bounds),
                    "counts": list(h.counts),
                    "sum": h.sum,
                    "count": h.count,
                }
                for k, h in sorted(self._histograms.items())
            },
            "series": {k: list(v) for k, v in sorted(self._series.items())},
        }


def merge_snapshots(*snapshots: Mapping[str, Any]) -> dict[str, Any]:
    """Aggregate snapshots: counters/histograms sum, gauges take max.

    Histograms merge bucket-by-bucket and therefore require identical
    bounds.  Series concatenate only when their column keys are disjoint
    between snapshots (two runs' tick series have no meaningful
    interleave); overlapping series raise.
    """
    merged: dict[str, Any] = {
        "counters": {},
        "gauges": {},
        "histograms": {},
        "series": {},
    }
    for snap in snapshots:
        for key, value in snap.get("counters", {}).items():
            merged["counters"][key] = merged["counters"].get(key, 0) + value
        for key, value in snap.get("gauges", {}).items():
            merged["gauges"][key] = max(
                merged["gauges"].get(key, float("-inf")), value
            )
        for key, hist in snap.get("histograms", {}).items():
            into = merged["histograms"].get(key)
            if into is None:
                merged["histograms"][key] = {
                    "bounds": list(hist["bounds"]),
                    "counts": list(hist["counts"]),
                    "sum": hist["sum"],
                    "count": hist["count"],
                }
                continue
            if list(hist["bounds"]) != into["bounds"]:
                raise SimulationError(
                    f"cannot merge histogram {key!r}: bounds differ"
                )
            into["counts"] = [
                a + b for a, b in zip(into["counts"], hist["counts"])
            ]
            into["sum"] += hist["sum"]
            into["count"] += hist["count"]
        for key, column in snap.get("series", {}).items():
            if key in merged["series"] and key != "t_us":
                raise SimulationError(
                    f"cannot merge overlapping series column {key!r}"
                )
            merged["series"][key] = list(column)
    for family in ("counters", "gauges", "histograms", "series"):
        merged[family] = dict(sorted(merged[family].items()))
    return merged


class NullTelemetry:
    """The telemetry off-switch substituted for ``telemetry=None``.

    The object is only the off-switch: every hook site guards on
    ``enabled`` before it touches a registry, so nothing else is
    needed here.
    """

    enabled = False


#: Shared zero-overhead instance (the telemetry twin of NULL_RECORDER).
NULL_TELEMETRY = NullTelemetry()
