"""The four benchmark workloads: shapes, one timed run, and correctness.

Every input derives from ``(seed, shape)`` alone: the metro's TV sites
come from ``generate_metro(..., seed=seed)`` and the drivers derive AP
placement, client paths, storm points and mic events from labelled
streams of the same seed.  The program receives only these inputs.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import hashlib
import json
import time
from typing import Any

import numpy as np

from repro.telemetry import metrics as tmetrics
from repro.telemetry import spans as tspans
from repro.wsdb import mobility, model, service, vector
from repro.wsdb.cluster import frontend, querystorm, router

#: TV-occupied UHF indices of every workload's metro (the dial
#: ``benchmarks/bench_scale.py`` uses).
OCCUPIED = range(12, 30)
#: One transmitter site per occupied channel: a seed moves the sites and
#: draws their powers but does not change their number.  With the
#: default one-or-two per channel, the count (18 to 36) moved a run's
#: index work by up to a quarter from seed to seed.
SITES_PER_CHANNEL = (1, 1)
#: 121 evaluated ticks at the default 1 s tick: TTL edges (60 s) at
#: ticks 0, 60 and 120 make three re-check waves.
DURATION_US = 120e6
#: Client count of the scalar-vs-vector parity run.
PARITY_CLIENTS = 200


@dataclasses.dataclass(frozen=True)
class Shape:
    """One workload's inputs, apart from the seed."""

    name: str
    why: str
    clients: int
    extent_m: float
    aps: int
    mics: int
    shards: int = 0  # 0: direct database (roaming); K: K-shard cluster (querystorm)
    qps: float = 0.0
    rate_limit_qps: float | None = None
    policy: str = "reject"
    push: bool = False
    observed: bool = False  # telemetry on + span_sample="head-100"

    @property
    def storm(self) -> bool:
        return self.shards > 0

    def reduced(self, clients: int) -> "Shape":
        """The same shape at *clients*, with load scaled alike."""
        scale = clients / self.clients
        return dataclasses.replace(
            self,
            clients=clients,
            qps=self.qps * scale,
            rate_limit_qps=None if self.rate_limit_qps is None else self.rate_limit_qps * scale,
        )


WORKLOADS = {
    s.name: s
    for s in (
        Shape(
            "roam-dense",
            "fleet and cache-hit path do nearly all the work; frontend, router, push and index do none",
            clients=32_000, extent_m=3_000.0, aps=12, mics=3,
        ),
        Shape(
            "roam-sparse",
            "same service layer with a working set larger than the cache, so cache misses and the index dominate",
            clients=2_000, extent_m=20_000.0, aps=48, mics=6,
        ),
        Shape(
            "storm",
            "cluster read path (storm generation, admission, coalescing, per-shard batching) dominates over a small fleet",
            clients=3_000, extent_m=3_000.0, aps=12, mics=3,
            shards=16, qps=3_000.0, rate_limit_qps=3_600.0, policy="reject",
        ),
        Shape(
            "churn-observed",
            "writes (invalidation, push fan-out, displacement) beside reads, with telemetry and sampled spans on",
            clients=2_500, extent_m=3_000.0, aps=12, mics=40,
            shards=16, qps=300.0, rate_limit_qps=600.0, policy="serve-stale",
            push=True, observed=True,
        ),
    )
}


class SetupDone(Exception):
    """Raised from the fleet-construction hook to stop a setup-only run."""


#: The callables whose every return the session clock stamps, as
#: ``(owner, attribute)`` where the program looks them up: the tick's
#: phases, a cache miss's cell computation, a frontend batch, and the
#: per-client stream seed of fleet spawning.  Together they cut a
#: session into pieces of tens of microseconds to a few milliseconds.
CHECKPOINTS = (
    *((vector.VectorFleet, name) for name in (
        "advance", "recheck_due", "commit_recheck", "set_snapshot", "associate_and_score")),
    (service.WhiteSpaceDatabase, "_compute_cell"),
    (frontend.BatchFrontend, "query_batch"),
    (mobility, "stream_seed"),
)


class SessionClock:
    """Stamps the wall time at fleet construction and at every checkpoint.

    Installed on ``VectorFleet.__init__`` and every :data:`CHECKPOINTS`
    attribute.  ``stamps`` holds the wall time of each return in call
    order; ``setup_end`` is the index just past the stamp of
    ``VectorFleet.__init__``, the last step before tick 0, and
    ``setup_cpu`` the CPU time there.  With ``abort`` set the set-up
    hook raises :class:`SetupDone`, so a setup-only run pays exactly the
    driver's own set-up path and nothing after it.
    """

    def __init__(self) -> None:
        self.stamps = array.array("d")
        self.setup_end: int | None = None
        self.setup_cpu = 0.0
        self.abort = False
        # A checkpoint the program no longer has is skipped: the pieces
        # get longer, and fastest_s's stretches keep their grain.
        self._checkpoints = [(o, a) for o, a in CHECKPOINTS if hasattr(o, a)]
        targets = [(vector.VectorFleet, "__init__"), *self._checkpoints]
        self._originals = [(owner, attr, getattr(owner, attr)) for owner, attr in targets]

    def start(self) -> None:
        """Forget the last session's stamps."""
        del self.stamps[:]
        self.setup_end = None

    def install(self) -> None:
        stamps, now = self.stamps, time.perf_counter
        init = vector.VectorFleet.__init__

        @functools.wraps(init)
        def timed_init(fleet, *args, **kwargs):
            init(fleet, *args, **kwargs)
            stamps.append(now())
            self.setup_end = len(stamps)
            self.setup_cpu = time.process_time()
            if self.abort:
                raise SetupDone

        def stamped(f):
            @functools.wraps(f)
            def wrapper(*args, **kwargs):
                out = f(*args, **kwargs)
                stamps.append(now())
                return out

            return wrapper

        vector.VectorFleet.__init__ = timed_init
        for owner, attr in self._checkpoints:
            setattr(owner, attr, stamped(getattr(owner, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in self._originals:
            setattr(owner, attr, original)

    def pieces(self, start: float, end: float | None = None) -> tuple[np.ndarray, np.ndarray]:
        """(set-up pieces, loop pieces): the seconds between successive stamps.

        Set-up runs from *start* to the end of fleet construction; the
        loop from there to *end* (no pieces when *end* is None).
        """
        stamps = np.array(self.stamps, dtype=float)
        setup = np.diff(np.concatenate(([start], stamps[: self.setup_end])))
        if end is None:
            return setup, np.empty(0)
        return setup, np.diff(np.concatenate((stamps[self.setup_end - 1:], [end])))


def simulate(shape: Shape, seed: int, engine: str = "vector") -> dict[str, Any]:
    """Build the world from ``(seed, shape)`` and run one session."""
    metro = model.generate_metro(
        OCCUPIED, seed=seed, extent_m=shape.extent_m, sites_per_channel=SITES_PER_CHANNEL
    )
    observers = {}
    if shape.observed:
        observers = {
            "telemetry": tmetrics.MetricsRegistry(),
            "spans": tspans.SpanRecorder("head-100"),
        }
    common = dict(
        num_aps=shape.aps,
        num_clients=shape.clients,
        duration_us=DURATION_US,
        seed=seed,
        mic_events=shape.mics,
        engine=engine,
        **observers,
    )
    if not shape.storm:
        return mobility.simulate_roaming(service.WhiteSpaceDatabase(metro), **common)
    return querystorm.simulate_querystorm(
        router.ShardRouter(metro, shape.shards),
        offered_qps=shape.qps,
        push=shape.push,
        rate_limit_qps=shape.rate_limit_qps,
        policy=shape.policy,
        **common,
    )


def timed_run(shape: Shape, seed: int, clock: SessionClock) -> dict[str, Any]:
    """One vector session, timed; returns its report and its times.

    ``setup`` runs from workload start to the end of fleet
    construction; ``loop`` from there to the driver's return (ticks
    plus report building).  Each carries wall and CPU seconds.
    ``setup_pieces`` and ``loop_pieces`` split the two wall times at
    every checkpoint (see :meth:`SessionClock.pieces`).
    """
    clock.start()
    w0, c0 = time.perf_counter(), time.process_time()
    report = simulate(shape, seed)
    w2, c2 = time.perf_counter(), time.process_time()
    w1, c1 = clock.stamps[clock.setup_end - 1], clock.setup_cpu
    setup_pieces, loop_pieces = clock.pieces(w0, w2)
    return {
        "report": report,
        "setup_s": w1 - w0,
        "setup_cpu_s": c1 - c0,
        "loop_s": w2 - w1,
        "loop_cpu_s": c2 - c1,
        "wall_s": w2 - w0,
        "setup_pieces": setup_pieces,
        "loop_pieces": loop_pieces,
    }


def setup_only(shape: Shape, seed: int, clock: SessionClock) -> dict[str, Any]:
    """The driver's set-up path alone: its wall and CPU seconds and pieces."""
    clock.start()
    clock.abort = True
    w0, c0 = time.perf_counter(), time.process_time()
    try:
        simulate(shape, seed)
    except SetupDone:
        pass
    finally:
        clock.abort = False
    return {
        "wall_s": clock.stamps[clock.setup_end - 1] - w0,
        "cpu_s": clock.setup_cpu - c0,
        "setup_pieces": clock.pieces(w0)[0],
    }


# -- what a report says --------------------------------------------------------


def requests(report: dict[str, Any]) -> tuple[int, int]:
    """(attempted, answered) availability requests of one report.

    Roaming requests are database lookups, all answered.  Storm
    requests are frontend requests; a shed one is answered only when
    serve-stale had a live stale entry.
    """
    if "frontend" not in report:
        return report["db"]["queries"], report["db"]["queries"]
    fe = report["frontend"]
    return fe["requests"], fe["requests"] - fe["shed"] + fe["served_stale"]


def client_ticks(report: dict[str, Any]) -> int:
    return report["num_clients"] * (int(report["duration_us"] // report["tick_us"]) + 1)


def shares(report: dict[str, Any]) -> dict[str, float]:
    """The input properties a later change may cite, for this run."""
    db = report["db"]
    attempted, answered = requests(report)
    out = {
        "hit_rate": db["hit_rate"],
        "cache_misses": db["cache_misses"],
        "evictions": db["evictions"],
        "invalidations": db["invalidations"],
        "requests": attempted,
        "answered_frac": answered / attempted,
    }
    if "frontend" in report:
        fe = report["frontend"]
        out["shed_frac"] = fe["shed"] / fe["requests"]
        out["stale_frac"] = fe["served_stale"] / fe["requests"]
        out["coalesced_frac"] = fe["coalesced"] / fe["requests"]
        out["storm_queries"] = report["storm_queries"]
    if report.get("push_stats"):
        out["notifications"] = report["push_stats"]["notifications"]
    if "spans" in report:
        out["span_traces_kept"] = report["spans"]["traces"]
    return out


def invariant_failures(report: dict[str, Any]) -> list[str]:
    """The conservation laws every report must satisfy; empty when it does."""
    bad = []

    def check(ok: bool, what: str) -> None:
        if not ok:
            bad.append(what)

    db = report["db"]
    check(db["queries"] == db["cache_hits"] + db["cache_misses"],
          "queries == cache_hits + cache_misses")
    check(report["connected_ticks"] + report["disconnected_ticks"] == client_ticks(report),
          "connected + disconnected == client_ticks")
    if "frontend" in report:
        fe = report["frontend"]
        check(fe["requests"] == fe["admitted"] + fe["shed"], "requests == admitted + shed")
        check(fe["served_stale"] <= fe["shed"], "served_stale <= shed")
        shards = report["per_shard"]
        for key in ("queries", "cache_hits", "cache_misses", "evictions", "expirations",
                    "invalidations", "candidates_scanned"):
            check(db[key] == sum(s[key] for s in shards), f"aggregate {key} == sum(per_shard)")
        check(db["registration_fanout"] == sum(s["mic_registrations"] for s in shards),
              "aggregate registration_fanout == sum(per_shard mic_registrations)")
        for i, s in enumerate(shards):
            check(s["queries"] == s["cache_hits"] + s["cache_misses"],
                  f"shard {i} queries == cache_hits + cache_misses")
    return bad


def parity_failures(shape: Shape, seed: int) -> list[str]:
    """Scalar and vector reports must be equal at a reduced client count."""
    small = shape.reduced(PARITY_CLIENTS)
    scalar = simulate(small, seed, engine="scalar")
    vec = simulate(small, seed, engine="vector")
    bad = [f"scalar {m}" for m in invariant_failures(scalar)]
    if scalar != vec:
        keys = sorted(k for k in scalar.keys() | vec.keys() if scalar.get(k) != vec.get(k))
        bad.append(f"scalar != vector at {PARITY_CLIENTS} clients (keys {keys})")
    return bad


def digest(report: dict[str, Any]) -> str:
    """sha256 of the report's canonical JSON (recorded, not pinned)."""
    text = json.dumps(report, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()
