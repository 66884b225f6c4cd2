"""The wall-clock phase profiler — observation only, never spec-driven.

This is the *other* clock, kept strictly apart from the sim-clock
metrics registry: phase timings come from ``time.perf_counter`` and are
therefore non-deterministic by nature.  They must never enter a report,
a metric snapshot, or anything spec-hashed — a profiler is attached
explicitly by a caller that wants a profile artifact (``make profile``,
``bench_scale``), not through the experiment spec.

The instrumented sites are the mobile session's set-up (boot / spawn)
and tick phases (advance / recheck-detect / batch-lookup / associate /
compliance) and the
``ParallelRunner`` fan-out; any of them accept ``profiler=None`` and
fall back to :data:`NULL_PROFILER`, whose ``phase()`` is a shared
no-op context manager.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path
from typing import Any, Callable, Iterator, Mapping

__all__ = ["NULL_PROFILER", "NullProfiler", "PhaseProfiler"]


class PhaseProfiler:
    """Accumulates wall-clock seconds per named phase.

    ``clock`` is injectable so determinism tests can drive the profiler
    with a fake counter; production callers leave the default.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._seconds: dict[str, float] = {}
        self._calls: dict[str, int] = {}

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = self._clock()
        try:
            yield
        finally:
            self.add(name, self._clock() - start)

    def add(self, name: str, seconds: float) -> None:
        self._seconds[name] = self._seconds.get(name, 0.0) + seconds
        self._calls[name] = self._calls.get(name, 0) + 1

    def seconds(self) -> dict[str, float]:
        """Per-phase totals, sorted by name — the ``phases`` row shape
        that ``BENCH_scale.json`` vector runs carry."""
        return {name: self._seconds[name] for name in sorted(self._seconds)}

    def report(self) -> dict[str, dict[str, float]]:
        return {
            name: {"seconds": self._seconds[name], "calls": self._calls[name]}
            for name in sorted(self._seconds)
        }

    def write(self, path: str | Path, meta: Mapping[str, Any] | None = None) -> Path:
        """Write the profile artifact (pretty JSON; wall-clock data, so
        the artifact is intentionally *not* byte-stable across runs)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"meta": dict(meta or {}), "phases": self.report()}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def write_chrome(
        self, path: str | Path, meta: Mapping[str, Any] | None = None
    ) -> Path:
        """Write the profile as Chrome trace-event JSON (Perfetto-loadable).

        The profiler keeps per-phase *totals*, not individual
        intervals, so the timeline is an aggregate: one ``"X"`` event
        per phase, laid head-to-tail in sorted-name order, each span's
        width its accumulated seconds (``args`` carries the call count
        and the raw total).  Wall-clock data — like :meth:`write`, the
        artifact is intentionally not byte-stable across runs.
        """
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        events: list[dict[str, Any]] = []
        offset_us = 0.0
        for name in sorted(self._seconds):
            dur_us = self._seconds[name] * 1e6
            events.append(
                {
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": offset_us,
                    "dur": dur_us,
                    "name": name,
                    "cat": "wall",
                    "args": {
                        "calls": self._calls[name],
                        "seconds": self._seconds[name],
                    },
                }
            )
            offset_us += dur_us
        payload = {"traceEvents": events, "metadata": dict(meta or {})}
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path


class NullProfiler:
    """The profiler off-switch substituted for ``profiler=None``.

    ``phase`` is the one method the tick loop calls unguarded (a shared
    no-op context manager); every other hook site guards on
    ``enabled``.
    """

    enabled = False
    _NULL_CONTEXT = nullcontext()

    def phase(self, name: str) -> Any:
        return self._NULL_CONTEXT


#: Shared no-op instance.
NULL_PROFILER = NullProfiler()
