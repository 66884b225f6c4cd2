"""K7-like columnar trace export: typed numpy columns + min/max stats.

A trace's event stream converts to one ``.npz`` archive of typed
columns — struct-of-arrays, one entry per event, in the canonical
stream order:

=================== ========== =================================================
array               dtype      meaning
=================== ========== =================================================
``t_us``            float64    event timestamp
``kind``            uint8      index into :data:`EVENT_KINDS`
``subject``         int64      actor id (-1 when absent)
``cell_mask``       bool       True where the event carries a cell
``cell_x/cell_y``   int64      cell coordinates (0 where masked out)
``xy_mask``         bool       True where the event carries coordinates
``x/y``             float64    exact coordinates (0.0 where masked out)
``aux_mask``        bool       True where the event carries an aux value
``aux``             int64      aux value (0 where masked out)
``chan_mask``       bool       True where the event carries a channel set
                               (distinguishes "no channels" from "empty set")
``chan_offsets``    int64      CSR offsets, length n+1: event i's channels are
                               ``chan_values[chan_offsets[i]:chan_offsets[i+1]]``
``chan_values``     int64      concatenated channel indices
=================== ========== =================================================

Two 0-d string entries ride along: ``header`` (the source trace's JSON
header, schema + version + meta) and ``stats`` (JSON per-column
``{min, max, count}`` over the *present* entries of each maskable
column — the quick-look summary a K7 file keeps per column).

The conversion is lossless: :func:`from_columnar` regenerates a JSONL
trace byte-identical to the source (both writers emit canonical JSON
and a zeroed gzip mtime).

Recording never touches this module; it loads only when a caller
converts or reads an archive.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.traces.record import (
    EVENT_KINDS,
    TraceEvent,
    read_trace,
    write_trace,
)

__all__ = [
    "columnar_stats",
    "from_columnar",
    "read_columnar",
    "read_columns_npz",
    "to_columnar",
    "write_columns_npz",
]

_KIND_CODE = {kind: code for code, kind in enumerate(EVENT_KINDS)}


def _column_stats(
    values: np.ndarray, mask: np.ndarray | None = None
) -> dict[str, Any]:
    """min/max/count over the present entries of one column."""
    present = values if mask is None else values[mask]
    if present.size == 0:
        return {"min": None, "max": None, "count": 0}
    return {
        "min": present.min().item(),
        "max": present.max().item(),
        "count": int(present.size),
    }


def to_columnar(
    trace_path: str | pathlib.Path,
    npz_path: str | pathlib.Path,
) -> dict[str, Any]:
    """Convert a JSONL trace into a columnar ``.npz``; returns the stats."""
    header, events = read_trace(trace_path)
    n = len(events)
    t_us = np.empty(n, np.float64)
    kind = np.empty(n, np.uint8)
    subject = np.empty(n, np.int64)
    cell_mask = np.zeros(n, bool)
    cell_x = np.zeros(n, np.int64)
    cell_y = np.zeros(n, np.int64)
    xy_mask = np.zeros(n, bool)
    x = np.zeros(n, np.float64)
    y = np.zeros(n, np.float64)
    aux_mask = np.zeros(n, bool)
    aux = np.zeros(n, np.int64)
    chan_mask = np.zeros(n, bool)
    chan_offsets = np.zeros(n + 1, np.int64)
    flat_channels: list[int] = []
    for i, event in enumerate(events):
        t_us[i] = event.t_us
        kind[i] = _KIND_CODE[event.kind]
        subject[i] = event.subject
        if event.cell is not None:
            cell_mask[i] = True
            cell_x[i], cell_y[i] = event.cell
        if event.x is not None:
            xy_mask[i] = True
            x[i] = event.x
            y[i] = 0.0 if event.y is None else event.y
        if event.aux is not None:
            aux_mask[i] = True
            aux[i] = event.aux
        if event.channels is not None:
            chan_mask[i] = True
            flat_channels.extend(event.channels)
        chan_offsets[i + 1] = len(flat_channels)
    chan_values = np.asarray(flat_channels, np.int64)
    stats = {
        "t_us": _column_stats(t_us),
        "kind": _column_stats(kind),
        "subject": _column_stats(subject),
        "cell_x": _column_stats(cell_x, cell_mask),
        "cell_y": _column_stats(cell_y, cell_mask),
        "x": _column_stats(x, xy_mask),
        "y": _column_stats(y, xy_mask),
        "aux": _column_stats(aux, aux_mask),
        "chan_values": _column_stats(chan_values),
    }
    npz_path = pathlib.Path(npz_path)
    npz_path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        npz_path,
        t_us=t_us,
        kind=kind,
        subject=subject,
        cell_mask=cell_mask,
        cell_x=cell_x,
        cell_y=cell_y,
        xy_mask=xy_mask,
        x=x,
        y=y,
        aux_mask=aux_mask,
        aux=aux,
        chan_mask=chan_mask,
        chan_offsets=chan_offsets,
        chan_values=chan_values,
        header=np.asarray(
            json.dumps(header, sort_keys=True, separators=(",", ":"))
        ),
        stats=np.asarray(
            json.dumps(stats, sort_keys=True, separators=(",", ":"))
        ),
    )
    return stats


def read_columnar(
    npz_path: str | pathlib.Path,
) -> tuple[dict[str, Any], list[TraceEvent]]:
    """Load a columnar archive back into ``(header, events)``."""
    npz_path = pathlib.Path(npz_path)
    if not npz_path.exists():
        raise SimulationError(f"no columnar trace at {npz_path}")
    with np.load(npz_path) as data:
        header = json.loads(str(data["header"][()]))
        t_us = data["t_us"]
        kind = data["kind"]
        subject = data["subject"]
        cell_mask = data["cell_mask"]
        cell_x = data["cell_x"]
        cell_y = data["cell_y"]
        xy_mask = data["xy_mask"]
        x = data["x"]
        y = data["y"]
        aux_mask = data["aux_mask"]
        aux = data["aux"]
        chan_mask = data["chan_mask"]
        chan_offsets = data["chan_offsets"]
        chan_values = data["chan_values"]
    events = []
    for i in range(len(t_us)):
        lo, hi = int(chan_offsets[i]), int(chan_offsets[i + 1])
        events.append(
            TraceEvent(
                t_us=float(t_us[i]),
                kind=EVENT_KINDS[int(kind[i])],
                subject=int(subject[i]),
                cell=(
                    (int(cell_x[i]), int(cell_y[i]))
                    if cell_mask[i]
                    else None
                ),
                channels=(
                    tuple(int(c) for c in chan_values[lo:hi])
                    if chan_mask[i]
                    else None
                ),
                x=float(x[i]) if xy_mask[i] else None,
                y=float(y[i]) if xy_mask[i] else None,
                aux=int(aux[i]) if aux_mask[i] else None,
            )
        )
    return header, events


def columnar_stats(npz_path: str | pathlib.Path) -> dict[str, Any]:
    """The per-column ``{min, max, count}`` stats stored in the archive."""
    npz_path = pathlib.Path(npz_path)
    if not npz_path.exists():
        raise SimulationError(f"no columnar trace at {npz_path}")
    with np.load(npz_path) as data:
        return json.loads(str(data["stats"][()]))


def write_columns_npz(
    npz_path: str | pathlib.Path,
    columns: dict[str, Any],
    meta: dict[str, Any] | None = None,
) -> dict[str, Any]:
    """Write a generic struct-of-arrays archive in the house style.

    Same conventions as :func:`to_columnar` — equal-length float64
    columns, per-column ``{min, max, count}`` riding along as a 0-d
    JSON ``stats`` entry, caller metadata as a 0-d JSON ``header``
    entry.  This is how a telemetry snapshot's per-tick series lands on
    disk; returns the stats.
    """
    if not columns:
        raise SimulationError("write_columns_npz needs at least one column")
    arrays = {
        name: np.asarray(values, np.float64) for name, values in columns.items()
    }
    lengths = {name: arr.shape for name, arr in arrays.items()}
    (n,) = next(iter(lengths.values()))
    for name, shape in lengths.items():
        if shape != (n,):
            raise SimulationError(
                f"column {name!r} has shape {shape}, expected ({n},)"
            )
    stats = {name: _column_stats(arrays[name]) for name in sorted(arrays)}
    npz_path = pathlib.Path(npz_path)
    npz_path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(
        npz_path,
        **{name: arrays[name] for name in sorted(arrays)},
        header=np.asarray(
            json.dumps(meta or {}, sort_keys=True, separators=(",", ":"))
        ),
        stats=np.asarray(
            json.dumps(stats, sort_keys=True, separators=(",", ":"))
        ),
    )
    return stats


def read_columns_npz(
    npz_path: str | pathlib.Path,
) -> tuple[dict[str, Any], dict[str, np.ndarray]]:
    """Load a generic column archive back into ``(meta, columns)``."""
    npz_path = pathlib.Path(npz_path)
    if not npz_path.exists():
        raise SimulationError(f"no column archive at {npz_path}")
    with np.load(npz_path) as data:
        meta = json.loads(str(data["header"][()]))
        columns = {
            name: data[name]
            for name in data.files
            if name not in ("header", "stats")
        }
    return meta, columns


def from_columnar(
    npz_path: str | pathlib.Path,
    trace_path: str | pathlib.Path,
) -> tuple[dict[str, Any], list[TraceEvent]]:
    """Regenerate a JSONL trace from a columnar archive (lossless)."""
    header, events = read_columnar(npz_path)
    write_trace(trace_path, events, header.get("meta"))
    return header, events
