"""repro.traces — dense run recording, columnar export, trace replay.

WhiteFi's evaluation is built on *measured traces*; this subsystem
gives the simulation the same spine.  Every wsdb driver
(``wsdb.citywide``, and ``wsdb.mobility`` and
``wsdb.cluster.querystorm`` through the ``wsdb.session`` tick loop —
scalar and vector engines alike) accepts
a ``recorder`` and emits one dense event stream per run: queries,
re-checks, handoffs, mic registrations, push notifications, admission
outcomes, and violation-window open/close — each stamped ``t_us`` x
cell x channel set.  Three layers:

- **record** (:mod:`repro.traces.record`): the versioned event schema,
  :class:`TraceRecorder` (gzip JSONL, canonical ordering, deterministic
  bytes), and the zero-overhead :data:`NULL_RECORDER` default.
- **columnar** (:mod:`repro.traces.columnar`): a K7-like converter
  packing event streams into typed numpy ``.npz`` columns with
  per-column min/max stats; lossless both ways.
- **replay** (:mod:`repro.traces.replay`): :class:`TraceWorkload`
  feeds a recorded storm's query stream back through ``BatchFrontend``
  in place of the synthetic generator; surfaced as the ``storm_trace``
  spec knob and the ``replay`` run kind.

Trace-format spec (``repro.traces/v1``, schema version 1)
---------------------------------------------------------

**JSONL layer.**  A trace file is gzip-compressed JSONL (readers also
accept plain JSONL).  Line 1 is the header::

    {"schema": "repro.traces/v1", "version": 1,
     "events": <count>, "meta": {...}}

Each following line is one event in canonical stream order — sorted by
``(t_us, kind rank, subject)`` — as compact sorted-key JSON with None
fields omitted::

    {"t_us": ..., "kind": ..., "subject": ...,
     "cell": [cx, cy]?, "channels": [..]?, "x": ..?, "y": ..?, "aux": ..?}

``kind`` is one of ``mic``, ``push``, ``query``, ``recheck``,
``handoff``, ``violation_open``, ``violation_close`` (rank order; see
:mod:`repro.traces.record` for per-kind field semantics — shed/admit
outcomes ride the ``aux`` flag of ``query``/``recheck`` events).  The
gzip mtime is zeroed and the JSON form canonical, so equal streams
produce equal *bytes*.

**Columnar layer.**  ``.npz`` struct-of-arrays: ``t_us`` (f64),
``kind`` (u8, index into the vocabulary), ``subject`` (i64), masked
value pairs ``cell_mask``/``cell_x``/``cell_y``, ``xy_mask``/``x``/
``y``, ``aux_mask``/``aux``, and a CSR channel list ``chan_mask``/
``chan_offsets`` (length n+1)/``chan_values``; plus the JSON
``header`` and per-column ``{min, max, count}`` ``stats`` as 0-d
string entries.  JSONL -> columnar -> JSONL round-trips losslessly.

Recording does not use numpy; replay builds numpy coordinate blocks
(the storm seam's shape), and the columnar names load lazily on first
use.
"""

from __future__ import annotations

from repro.traces.record import (
    EVENT_KINDS,
    NULL_RECORDER,
    NullTraceRecorder,
    TRACE_SCHEMA,
    TRACE_SCHEMA_VERSION,
    TraceEvent,
    TraceRecorder,
    read_trace,
    write_trace,
)
from repro.traces.replay import TraceWorkload

__all__ = [
    "EVENT_KINDS",
    "NULL_RECORDER",
    "NullTraceRecorder",
    "TRACE_SCHEMA",
    "TRACE_SCHEMA_VERSION",
    "TraceEvent",
    "TraceRecorder",
    "TraceWorkload",
    "columnar_stats",
    "from_columnar",
    "read_columnar",
    "read_trace",
    "to_columnar",
    "write_trace",
]

_COLUMNAR_NAMES = frozenset(
    {"columnar_stats", "from_columnar", "read_columnar", "to_columnar"}
)


def __getattr__(name: str):
    # Lazy: the columnar layer is only loaded when a caller converts.
    if name in _COLUMNAR_NAMES:
        from repro.traces import columnar

        return getattr(columnar, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
