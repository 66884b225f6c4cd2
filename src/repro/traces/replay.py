"""Trace replay: feed a recorded storm's query stream back as workload.

:class:`TraceWorkload` extracts the ``query`` events from a trace and
iterates them as ``(t_us, xy)`` blocks — one (n, 2) float64 coordinate
array per run of equal stamps, the exact shape the storm seam
(``repro.wsdb.cluster.querystorm.synthetic_storm`` / ``StormFeed``)
produces for synthetic traffic, so a replayed storm runs through
``BatchFrontend`` on the same code path as a generated one.

Determinism chain: ``query`` events record the *exact* request floats
(JSON round-trips Python floats bit-for-bit) and sort canonically by
``(t_us, kind, sequence)``, which is the original submission order —
so replaying a recorded storm re-issues the identical bursts at the
identical fences, and a re-recorded replay is byte-identical to its
source trace.
"""

from __future__ import annotations

import pathlib
from typing import Any, Iterator, Sequence

import numpy as np

from repro.errors import SimulationError
from repro.traces.record import TraceEvent, read_trace

__all__ = ["TraceWorkload"]


class TraceWorkload:
    """The replayable ``(t_us, xy)`` query blocks of a recorded run.

    Build one with :meth:`open` (reads ``.jsonl``/``.jsonl.gz`` traces,
    or ``.npz`` columnar archives) and pass it to
    ``simulate_querystorm(..., storm_source=workload)`` — or set the
    ``storm_trace`` spec knob and let the ``querystorm``/``replay`` run
    kinds do exactly that.  ``len()`` counts queries, not blocks.
    """

    def __init__(
        self,
        events: Sequence[TraceEvent],
        path: str | pathlib.Path | None = None,
    ):
        self.path = None if path is None else pathlib.Path(path)
        stamps: list[float] = []
        coords: list[tuple[float, float]] = []
        for event in events:
            if event.kind != "query":
                continue
            if event.x is None or event.y is None:
                raise SimulationError(
                    f"query event at t_us={event.t_us} has no coordinates; "
                    f"not a replayable trace"
                )
            stamps.append(event.t_us)
            coords.append((event.x, event.y))
        xy = np.array(coords, dtype=np.float64).reshape(-1, 2)
        # One block per run of equal stamps, in event order.
        cuts = [i for i in range(1, len(stamps)) if stamps[i] != stamps[i - 1]]
        self._blocks: list[tuple[float, np.ndarray]] = [
            (stamps[lo], xy[lo:hi])
            for lo, hi in zip([0, *cuts], [*cuts, len(stamps)])
            if hi > lo
        ]
        self._queries = len(stamps)

    @classmethod
    def open(cls, path: str | pathlib.Path) -> "TraceWorkload":
        """Load a workload from a JSONL trace or a columnar archive."""
        path = pathlib.Path(path)
        if path.suffix == ".npz":
            from repro.traces.columnar import read_columnar

            _header, events = read_columnar(path)
        else:
            _header, events = read_trace(path)
        return cls(events, path)

    def __len__(self) -> int:
        return self._queries

    def __iter__(self) -> Iterator[tuple[float, np.ndarray]]:
        return iter(self._blocks)

    def __repr__(self) -> str:
        origin = "" if self.path is None else f" from {self.path}"
        return f"<TraceWorkload {self._queries} queries{origin}>"

    def to_meta(self) -> dict[str, Any]:
        """A small JSON-plain description (for recorder meta headers)."""
        return {
            "source": None if self.path is None else str(self.path),
            "queries": self._queries,
        }
