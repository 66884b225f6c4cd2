#!/usr/bin/env python3
"""Fail CI when the roaming-engine throughput regresses.

Reads the append-only trajectory log ``BENCH_scale.json`` that
``benchmarks/bench_scale.py`` maintains at the repo root and compares
the two most recent *comparable* entries — same ``host``, same
``smoke`` flag, and the same realized sweep coverage (the set of
vector fleet sizes actually measured, excluding ``skipped: "budget"``
stub rows), so a budget-truncated sweep, a smoke run, or an entry from
a different machine is never judged against this one.  Exits non-zero when the latest
headline clients/sec falls below 80% of the previous entry's; with
fewer than two comparable entries there is nothing to compare and the
check is a no-op.

Before comparing, every entry is validated against the row schema
``benchmarks/bench_scale.py`` writes — unknown or missing keys fail
with a clear message naming the entry and the offending keys, so a
drifted writer is caught at the first CI run instead of producing a
silently mis-compared trajectory.

Stdlib only: CI runs this right after ``make bench-smoke`` without any
extra dependencies.

Usage::

    python scripts/bench_trend.py [path/to/BENCH_scale.json]
"""

from __future__ import annotations

import json
import pathlib
import sys

#: The latest entry must retain at least this fraction of the previous
#: entry's headline clients/sec.
REGRESSION_FLOOR = 0.8

#: The exact key set of one trajectory entry.
ENTRY_KEYS = frozenset(
    {
        "created",
        "version",
        "host",
        "smoke",
        "duration_us",
        "runs",
        "speedup_vs_scalar",
        "headline_clients",
        "headline_clients_per_sec",
    }
)
#: "observability" (the anchor-size telemetry+spans A/B row) arrived
#: after the first host-stamped entry was recorded, so it is optional.
ENTRY_OPTIONAL_KEYS = frozenset({"observability"})

#: The exact key set of one measured run row ("phases" — the vector
#: engine's wall-clock breakdown — is the one optional key).
RUN_KEYS = frozenset(
    {
        "engine",
        "clients",
        "ticks",
        "wall_s",
        "client_ticks",
        "clients_per_sec",
        "ticks_per_sec",
        "peak_rss_kb",
    }
)
RUN_OPTIONAL_KEYS = frozenset({"phases"})

#: The exact key set of a budget-skipped stub row.
SKIPPED_KEYS = frozenset({"engine", "clients", "skipped"})

#: The exact key set of the observability A/B row: the anchor-size
#: vector run with metrics registry + span recorder attached, timed
#: against the plain anchor run.
OBSERVABILITY_KEYS = frozenset(
    {
        "clients",
        "observed_wall_s",
        "plain_wall_s",
        "overhead_ratio",
        "spans",
        "traces",
    }
)


class SchemaError(ValueError):
    """A trajectory entry does not match the bench_scale row schema."""


def _check_keys(
    what: str, have: frozenset, required: frozenset, optional: frozenset
) -> None:
    missing = required - have
    unknown = have - required - optional
    problems = []
    if missing:
        problems.append(f"missing keys {sorted(missing)}")
    if unknown:
        problems.append(f"unknown keys {sorted(unknown)}")
    if problems:
        raise SchemaError(f"{what}: {'; '.join(problems)}")


def validate_entry(entry: dict, index: int) -> None:
    """Reject an entry whose shape drifted from the bench_scale writer."""
    what = f"entry {index}"
    if not isinstance(entry, dict):
        raise SchemaError(f"{what}: expected an object, got {type(entry).__name__}")
    _check_keys(what, frozenset(entry), ENTRY_KEYS, ENTRY_OPTIONAL_KEYS)
    if not isinstance(entry["runs"], list) or not entry["runs"]:
        raise SchemaError(f"{what}: runs must be a non-empty list")
    for j, run in enumerate(entry["runs"]):
        where = f"{what} run {j}"
        if not isinstance(run, dict):
            raise SchemaError(
                f"{where}: expected an object, got {type(run).__name__}"
            )
        if "skipped" in run:
            _check_keys(where, frozenset(run), SKIPPED_KEYS, frozenset())
        else:
            _check_keys(where, frozenset(run), RUN_KEYS, RUN_OPTIONAL_KEYS)
    if "observability" in entry:
        obs = entry["observability"]
        where = f"{what} observability"
        if not isinstance(obs, dict):
            raise SchemaError(
                f"{where}: expected an object, got {type(obs).__name__}"
            )
        _check_keys(where, frozenset(obs), OBSERVABILITY_KEYS, frozenset())


def validate_log(entries: list[dict]) -> None:
    """Validate every entry of a trajectory log."""
    for i, entry in enumerate(entries):
        validate_entry(entry, i)


def sweep_coverage(entry: dict) -> tuple[int, ...]:
    """The vector fleet sizes an entry actually measured, ascending.

    Budget-skipped stub rows (``skipped: "budget"``) are excluded: two
    entries compare only when the same sizes really ran.
    """
    return tuple(
        sorted(
            run["clients"]
            for run in entry.get("runs", ())
            if run.get("engine") == "vector" and not run.get("skipped")
        )
    )


def comparable_pair(entries: list[dict]) -> tuple[dict, dict] | None:
    """(previous, latest) entries with matching host + smoke flag +
    coverage.

    Wall-clock throughput only compares on the same machine, so an
    entry recorded on a different host never judges this one — the
    first entry on a new host starts a fresh baseline.
    """
    if not entries:
        return None
    latest = entries[-1]
    for prev in reversed(entries[:-1]):
        if (
            prev["host"] == latest["host"]
            and prev["smoke"] == latest["smoke"]
            and sweep_coverage(prev) == sweep_coverage(latest)
        ):
            return prev, latest
    return None


def main(argv: list[str]) -> int:
    log_path = pathlib.Path(
        argv[1]
        if len(argv) > 1
        else pathlib.Path(__file__).parent.parent / "BENCH_scale.json"
    )
    if not log_path.exists():
        print(f"bench-trend: no log at {log_path}; nothing to compare")
        return 0
    entries = json.loads(log_path.read_text()).get("entries", [])
    try:
        validate_log(entries)
    except SchemaError as err:
        print(f"bench-trend: schema error in {log_path}: {err}")
        return 1
    pair = comparable_pair(entries)
    if pair is None:
        print(
            f"bench-trend: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}, "
            "no comparable pair; nothing to compare"
        )
        return 0
    prev, latest = pair
    before = prev["headline_clients_per_sec"]
    after = latest["headline_clients_per_sec"]
    ratio = after / before if before else float("inf")
    verdict = "ok" if ratio >= REGRESSION_FLOOR else "REGRESSION"
    print(
        f"bench-trend: {before:.0f} -> {after:.0f} clients/s "
        f"({ratio:.2f}x, floor {REGRESSION_FLOOR:.2f}) "
        f"at {latest.get('headline_clients')} clients "
        f"[{prev.get('version')} -> {latest.get('version')}]: {verdict}"
    )
    return 0 if ratio >= REGRESSION_FLOOR else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
