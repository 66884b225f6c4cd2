"""Dense run recording: the versioned event schema and the JSONL writer.

One simulated session becomes one *trace*: a gzip-compressed JSONL
file whose first line is a header record and whose remaining lines are
:class:`TraceEvent` records in canonical order.  The schema is stable
and versioned (:data:`TRACE_SCHEMA` / :data:`TRACE_SCHEMA_VERSION`):
replaying, diffing, and columnar conversion all key off it, so a
breaking change to the event vocabulary bumps the version instead of
silently shifting meanings.

**Event vocabulary** (:data:`EVENT_KINDS`, in canonical rank order):

========================= ====================================================
kind                      one ...
========================= ====================================================
``mic``                   microphone registration going live (subject = event
                          index; channels = the protected UHF index)
``push``                  PAWS notification delivered to a subscribed device
                          (subject = device id; aux = mic event index)
``query``                 storm/sweep availability request (subject = request
                          sequence; aux = admitted 0/1; channels = response,
                          None when shed without a stale fallback)
``recheck``               mobile client re-check under the FCC rule (subject =
                          client id; aux = admitted 0/1 — a deferred re-check
                          is aux 0 with channels None)
``handoff``               association change (subject = client id; aux = new
                          AP id; channels = the new AP's spanned indices)
``violation_open``        client entered ground-truth violation (channels =
                          the offending AP's spanned indices)
``violation_close``       client left violation — naturally (aux 0) or at end
                          of run while still violating (aux 1)
========================= ====================================================

Every event is stamped ``t_us`` x ``cell`` x channel set, plus the
exact float coordinates where they exist (a recorded ``query`` stream
is replayable bit-for-bit because JSON round-trips Python floats
exactly).  The admission outcome (*shed/admit*) rides the ``query`` and
``recheck`` events' ``aux`` flag rather than being its own kind.

**Canonical order.**  Drivers emit events one *stage* at a time
(a tick's re-checks, then its handoffs and violation windows; mic and
push events when a registration fires), not in stamp order.  The
recorder therefore buffers events and sorts them by ``(t_us, kind
rank, subject)`` on :meth:`TraceRecorder.close` — a total order that
does not depend on how a driver interleaves its hooks, which is what
makes "both engines emit identical streams" checkable with a byte
compare.

The writer zeroes the gzip mtime field, so identical event streams
produce identical *bytes* — trace files diff like content, not like
timestamps.
"""

from __future__ import annotations

import gzip
import io
import json
import pathlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import SimulationError

__all__ = [
    "EVENT_KINDS",
    "NULL_RECORDER",
    "NullTraceRecorder",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "TraceRecorder",
    "read_trace",
    "write_trace",
]

#: Schema identifier written into (and checked against) every header.
TRACE_SCHEMA = "repro.traces/v1"

#: Bumped on any breaking change to the event vocabulary or fields.
TRACE_SCHEMA_VERSION = 1

#: The event vocabulary, in canonical within-timestamp rank order.
EVENT_KINDS = (
    "mic",
    "push",
    "query",
    "recheck",
    "handoff",
    "violation_open",
    "violation_close",
)

_KIND_RANK = {kind: rank for rank, kind in enumerate(EVENT_KINDS)}


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded simulation event (see the module docstring table).

    Attributes:
        t_us: simulation timestamp (exact float; tick fences for tick
            events, the registration's own start for mic events).
        kind: one of :data:`EVENT_KINDS`.
        subject: the event's deterministic actor id — client id, device
            id, AP id, mic event index, or storm request sequence
            number (-1 when no actor applies).
        cell: the quantization cell the event is about, or None.
        channels: the channel set stamped on the event (a response, an
            AP's spans, a protected index), or None.
        x / y: exact coordinates where meaningful (always present on
            ``query`` events — the replayable storm stream).
        aux: kind-specific small integer (admitted flag, new AP id,
            mic event index, end-of-run close marker).
    """

    t_us: float
    kind: str
    subject: int = -1
    cell: tuple[int, int] | None = None
    channels: tuple[int, ...] | None = None
    x: float | None = None
    y: float | None = None
    aux: int | None = None

    def sort_key(self) -> tuple[float, int, int]:
        """The canonical stream order: (t_us, kind rank, subject)."""
        return (self.t_us, _KIND_RANK[self.kind], self.subject)

    def to_dict(self) -> dict[str, Any]:
        """A plain-data record (None fields omitted; JSON-compatible)."""
        record: dict[str, Any] = {
            "t_us": self.t_us,
            "kind": self.kind,
            "subject": self.subject,
        }
        if self.cell is not None:
            record["cell"] = list(self.cell)
        if self.channels is not None:
            record["channels"] = list(self.channels)
        if self.x is not None:
            record["x"] = self.x
        if self.y is not None:
            record["y"] = self.y
        if self.aux is not None:
            record["aux"] = self.aux
        return record

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TraceEvent":
        """Inverse of :meth:`to_dict` (tolerates parsed-JSON lists)."""
        cell = data.get("cell")
        channels = data.get("channels")
        x = data.get("x")
        y = data.get("y")
        aux = data.get("aux")
        return cls(
            t_us=float(data["t_us"]),
            kind=str(data["kind"]),
            subject=int(data.get("subject", -1)),
            cell=None if cell is None else (int(cell[0]), int(cell[1])),
            channels=(
                None if channels is None else tuple(int(c) for c in channels)
            ),
            x=None if x is None else float(x),
            y=None if y is None else float(y),
            aux=None if aux is None else int(aux),
        )


def _dumps(record: Mapping[str, Any]) -> str:
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def write_trace(
    path: str | pathlib.Path,
    events: Sequence[TraceEvent],
    meta: Mapping[str, Any] | None = None,
) -> None:
    """Write a header + *events* as deterministic gzip JSONL.

    The gzip mtime is pinned to zero and the JSON form is canonical
    (sorted keys, compact separators), so the same events and meta
    always produce the same bytes — the property the record -> columnar
    -> record round-trip test and ``trace_diff`` rely on.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    header = {
        "schema": TRACE_SCHEMA,
        "version": TRACE_SCHEMA_VERSION,
        "events": len(events),
        "meta": dict(meta or {}),
    }
    with open(path, "wb") as raw:
        # filename="" keeps the gzip FNAME field empty and mtime=0 the
        # timestamp zeroed: equal streams -> equal bytes, any path.
        with gzip.GzipFile(
            filename="", fileobj=raw, mode="wb", mtime=0
        ) as gz:
            with io.TextIOWrapper(gz, encoding="utf-8", newline="\n") as text:
                text.write(_dumps(header) + "\n")
                for event in events:
                    text.write(_dumps(event.to_dict()) + "\n")


def read_trace(
    path: str | pathlib.Path,
) -> tuple[dict[str, Any], list[TraceEvent]]:
    """Read a trace file; returns ``(header, events)``.

    Accepts both gzip-compressed (the writer's output) and plain JSONL
    (detected by magic bytes).  Raises :class:`SimulationError` on a
    missing file, an empty file, or a foreign/newer schema.
    """
    path = pathlib.Path(path)
    if not path.exists():
        raise SimulationError(f"no trace file at {path}")
    with open(path, "rb") as raw:
        payload = raw.read()
    if payload[:2] == b"\x1f\x8b":
        payload = gzip.decompress(payload)
    lines = payload.decode("utf-8").splitlines()
    if not lines:
        raise SimulationError(f"empty trace file {path}")
    header = json.loads(lines[0])
    if header.get("schema") != TRACE_SCHEMA:
        raise SimulationError(
            f"{path} is not a {TRACE_SCHEMA} trace "
            f"(schema {header.get('schema')!r})"
        )
    if header.get("version") != TRACE_SCHEMA_VERSION:
        raise SimulationError(
            f"{path} has trace schema version {header.get('version')!r}; "
            f"this build reads version {TRACE_SCHEMA_VERSION}"
        )
    events = [TraceEvent.from_dict(json.loads(line)) for line in lines[1:]]
    return header, events


class TraceRecorder:
    """Buffers simulation events and writes one canonical trace file.

    Pass one to a driver (``simulate_querystorm(..., recorder=...)``)
    and :meth:`close` it afterwards — or use it as a context manager.
    Events are buffered in memory and sorted into the canonical stream
    order at close, so hook sites never need to coordinate ordering.

    Args:
        path: destination trace file (gzip JSONL).
        meta: free-form JSON-plain annotations for the header (run
            parameters, seeds, labels).  Meta is informational: event
            comparison (``trace_diff``, the replay bit-identity check)
            never reads it.
    """

    enabled = True

    def __init__(
        self,
        path: str | pathlib.Path,
        meta: Mapping[str, Any] | None = None,
    ):
        self.path = pathlib.Path(path)
        self.meta = dict(meta or {})
        self._events: list[TraceEvent] = []
        self._closed = False

    def emit(
        self,
        kind: str,
        t_us: float,
        subject: int = -1,
        cell: tuple[int, int] | None = None,
        channels: Iterable[int] | None = None,
        x: float | None = None,
        y: float | None = None,
        aux: int | None = None,
    ) -> None:
        """Record one event (values normalized to plain Python types)."""
        if kind not in _KIND_RANK:
            raise SimulationError(
                f"unknown trace event kind {kind!r}; "
                f"expected one of {EVENT_KINDS}"
            )
        self._events.append(
            TraceEvent(
                t_us=float(t_us),
                kind=kind,
                subject=int(subject),
                cell=None if cell is None else (int(cell[0]), int(cell[1])),
                channels=(
                    None
                    if channels is None
                    else tuple(int(c) for c in channels)
                ),
                x=None if x is None else float(x),
                y=None if y is None else float(y),
                aux=None if aux is None else int(aux),
            )
        )

    def sorted_events(self) -> list[TraceEvent]:
        """The buffered events in canonical stream order."""
        return sorted(self._events, key=TraceEvent.sort_key)

    def close(self) -> None:
        """Sort and write the trace (idempotent)."""
        if self._closed:
            return
        self._closed = True
        write_trace(self.path, self.sorted_events(), self.meta)

    def __enter__(self) -> "TraceRecorder":
        return self

    def __exit__(self, *exc: object) -> bool:
        self.close()
        return False


class NullTraceRecorder:
    """The recorder off-switch: the zero-overhead default.

    The object is only the off-switch: drivers test ``enabled`` before
    building event arguments, so a run without a recorder executes
    exactly the pre-traces code path and reports stay byte-identical.
    """

    enabled = False


#: The shared do-nothing recorder drivers default to.
NULL_RECORDER = NullTraceRecorder()
