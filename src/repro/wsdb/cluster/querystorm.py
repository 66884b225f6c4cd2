"""The querystorm workload: a sharded cluster under storm + mobility.

This driver is the cluster subsystem's proving ground, combining three
load sources against one :class:`~repro.wsdb.cluster.router.ShardRouter`
behind one :class:`~repro.wsdb.cluster.frontend.BatchFrontend`:

* a **query storm** — ``offered_qps`` synthetic availability requests
  per simulated second, drawn uniformly over the plane and submitted as
  one burst per tick (the batch shape the frontend coalesces and, when
  a rate limit is set, sheds);
* a **roaming population** — the :mod:`~repro.wsdb.mobility` mobile
  clients, re-checking through the same frontend (so a storm can starve
  them: a shed re-check is *deferred* — the client keeps its stale
  response and retries next tick);
* a **citywide deployment** — ``num_aps`` fixed APs booted off the
  router with mic-event backup-channel recovery, exactly as in the
  citywide/roaming drivers (AP control traffic queries the router
  directly: the operator's own path is not admission-controlled).

With ``push=True`` the clients additionally register in a
:class:`~repro.wsdb.cluster.push.PushRegistry`: a mid-session
microphone registration then notifies every subscribed client whose
cell the zone touches, and the notified clients refresh **that tick**
instead of waiting for the FCC re-check rule's next trigger — closing
the pull model's violation window.  ``bench_wsdb_cluster`` asserts the
closure: pushed runs accrue strictly less ground-truth violation time
than pull-only runs of the same seed.

Everything derives from the master seed through labelled
:func:`~repro.sim.rng.stream_seed` streams, and admission/batching are
clocked by simulation time, so a run is byte-identical in any process —
the contract the ``querystorm`` run kind and ``ParallelRunner`` rely
on.

This module holds the storm source (:func:`synthetic_storm`,
:class:`StormFeed`) and the entry point; the
tick loop and the cluster query path are in :mod:`repro.wsdb.session`,
shared with the roaming driver and both engines.
"""

from __future__ import annotations

import random
from typing import Any, Iterable, Iterator

import numpy as np

from repro.errors import SimulationError
from repro.wsdb.citywide import DEFAULT_INTERFERENCE_RADIUS_M
from repro.wsdb.cluster.router import ShardRouter
from repro.wsdb.mobility import DEFAULT_SPEED_MPS, DEFAULT_TICK_US, ENGINES

__all__ = ["StormFeed", "simulate_querystorm", "synthetic_storm"]


def synthetic_storm(
    offered_qps: float,
    tick_us: float,
    ticks: int,
    extent_m: float,
    rng: random.Random,
) -> Iterator[tuple[float, np.ndarray]]:
    """The synthetic poisson-ish storm as ``(t_us, xy)`` blocks.

    This is the workload-source seam both storm engines consume (via
    :class:`StormFeed`): per tick, a fractional request budget of
    ``offered_qps * tick_us / 1e6`` accrues and its integer part is
    drained as uniformly placed requests, yielded as one (n, 2) float64
    block per tick that has any.  Each coordinate is
    ``0.0 + (extent_m - 0.0) * rng.random()`` — what
    ``rng.uniform(0.0, extent_m)`` computes — drawn x then y per
    request, so the points are bit-identical to a per-request
    ``uniform`` stream.  Blocks are generated tick by tick; the whole
    storm is never held at once.  A recorded trace's
    :class:`~repro.traces.replay.TraceWorkload` yields the same block
    shape, which is all it takes to replay captured traffic through the
    same path.

    A tick's 2n draws come from one ``rng.getrandbits(128 * n)``, not
    2n ``rng.random()`` calls.  CPython's ``random()`` takes two
    consecutive 32-bit Mersenne Twister words ``a`` then ``b`` and
    returns ``((a >> 5) * 2**26 + (b >> 6)) / 2**53``; ``getrandbits``
    of a multiple of 32 bits draws its words from the same generator
    and places them least significant first, on either byte order.  So
    the little-endian bytes of that integer, read as ``<u8``, hold one
    draw per 64-bit word ``w`` (``a`` in its low half, ``b`` in its
    high half), the draw is ``((w & 0xFFFFFFFF) >> 5) * 2**26 + (w >>
    38)`` over ``2**53`` (every step exact in float64), and the
    ``Random`` ends in exactly the state 2n ``random()`` calls leave.
    """
    budget = 0.0
    for k in range(ticks + 1):
        t_us = k * tick_us
        budget += offered_qps * tick_us / 1e6
        n = int(budget)
        budget -= n
        if n:
            w = np.frombuffer(
                rng.getrandbits(128 * n).to_bytes(16 * n, "little"), "<u8"
            )
            u = ((w & 0xFFFFFFFF) >> 5) * 67108864.0 + (w >> 38)
            u /= 9007199254740992.0
            yield t_us, 0.0 + (extent_m - 0.0) * u.reshape(n, 2)


class StormFeed:
    """One-block-lookahead consumer of a ``(t_us, xy)`` storm source.

    :meth:`burst` drains every pending block stamped at or before the
    tick fence, preserving source order — the burst shape the frontend
    admits and coalesces.
    """

    def __init__(self, source: Iterable[tuple[float, np.ndarray]]):
        self._it = iter(source)
        self._pending = next(self._it, None)
        #: The last burst's source timestamps, one per returned point —
        #: the enqueue stamps the frontend's latency histogram observes
        #: (a replayed trace carries sub-tick stamps; the synthetic
        #: storm stamps on the fence).  A plain list, so each stamp
        #: keeps its source's Python type (a kept span tree's
        #: ``latency_us`` is computed from it as given).
        self.last_times: list[float] = []

    def burst(self, t_us: float) -> np.ndarray:
        """All queued points due at or before ``t_us``, as (n, 2)."""
        times: list[float] = []
        blocks: list[np.ndarray] = []
        pending = self._pending
        while pending is not None and pending[0] <= t_us:
            times.extend([pending[0]] * len(pending[1]))
            blocks.append(pending[1])
            pending = next(self._it, None)
        self._pending = pending
        self.last_times = times
        if not blocks:
            return np.zeros((0, 2))
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)


def simulate_querystorm(
    router: ShardRouter,
    num_aps: int,
    num_clients: int,
    duration_us: float,
    seed: int,
    offered_qps: float = 0.0,
    push: bool = False,
    speed_mps: float = DEFAULT_SPEED_MPS,
    recheck_m: float | None = None,
    mic_events: int = 0,
    tick_us: float = DEFAULT_TICK_US,
    rate_limit_qps: float | None = None,
    burst_size: float | None = None,
    policy: str = "reject",
    interference_radius_m: float = DEFAULT_INTERFERENCE_RADIUS_M,
    engine: str = "scalar",
    storm_source: Iterable[tuple[float, float, float]] | None = None,
    recorder: Any = None,
    telemetry: Any = None,
    profiler: Any = None,
    spans: Any = None,
) -> dict[str, Any]:
    """Run one querystorm session; returns a plain-data report.

    The report is JSON-plain throughout (the ``querystorm`` run kind's
    probe routes it into an ``ExperimentResult`` unchanged).

    Args:
        router: the sharded database tier (APs, clients, and the storm
            share it).
        num_aps: fixed APs booted across the plane (citywide-style).
        num_clients: mobile clients following waypoint paths (0 runs a
            pure storm with no mobility or compliance scoring).
        duration_us: session length; the tick loop covers [0, duration].
        seed: master seed; placement, paths, storm points, and mic
            events derive from labelled streams of it.
        offered_qps: synthetic storm load (requests per simulated
            second), submitted as one burst per tick.
        push: register clients for PAWS-style zone notifications; a
            notified client refreshes immediately instead of waiting
            for its next re-check trigger.
        speed_mps: client speed along its path.
        recheck_m: movement granularity of the re-check rule (None:
            the router's own ``cache_resolution_m``).
        mic_events: mid-session microphone registrations.
        tick_us: simulation step.
        rate_limit_qps / burst_size / policy: frontend admission
            control (None rate: nothing is shed).
        interference_radius_m: AP mutual-interference radius.
        engine: "scalar" (the per-client reference fleet,
            :class:`~repro.wsdb.session.ScalarFleet`) or "vector" (the
            columnar numpy engine, :mod:`repro.wsdb.vector`).  Both
            produce bit-identical reports; "vector" is the one that
            scales to millions of clients.
        storm_source: an explicit ``(t_us, xy)`` block stream (``xy``
            an (n, 2) float array per stamp) in place of the synthetic
            generator — typically a
            :class:`~repro.traces.replay.TraceWorkload` replaying a
            recorded storm.  ``offered_qps`` is then only echoed in the
            report (pass the source run's value to make the reports
            comparable key-for-key).
        recorder: a :class:`~repro.traces.record.TraceRecorder` to
            stream dense run events into (None: the zero-overhead null
            recorder).  Recording observes only — reports are
            bit-identical with and without it.  The caller closes the
            recorder.
        telemetry: a sim-clock
            :class:`~repro.telemetry.metrics.MetricsRegistry` (None:
            the zero-overhead null sink).  When attached, the run
            samples a per-tick time series, the frontend observes
            request latencies, the whole cluster publishes its counters
            at the end, and the report gains a ``"telemetry"``
            snapshot.  Deterministic: both engines produce identical
            snapshots; with None the report is byte-identical to a
            pre-telemetry run.
        profiler: a wall-clock
            :class:`~repro.telemetry.profiler.PhaseProfiler` (None: the
            no-op profiler).  The tick loop both engines share times
            its stages as phases: the roaming ones plus ``storm-gen``
            (the storm feed) and ``frontend`` (the storm burst); the
            re-check burst runs in ``batch-lookup``.  Either engine
            reports the same phase names.  Never affects the report.
        spans: a sim-clock
            :class:`~repro.telemetry.spans.SpanRecorder` (None: the
            zero-overhead null recorder).  When attached, every storm
            query and client re-check records a request-scoped span
            tree through the frontend and every mic registration an
            invalidation/fan-out tree, and the report gains a
            ``"spans"`` table.  Deterministic: both engines emit
            byte-identical span sets; with None the report is
            byte-identical to a spans-free run.
    """
    if num_clients < 0:
        raise SimulationError(
            f"querystorm needs >= 0 clients, got {num_clients!r}"
        )
    if duration_us <= 0:
        raise SimulationError(
            f"querystorm duration must be > 0, got {duration_us!r}"
        )
    if offered_qps < 0:
        raise SimulationError(
            f"offered_qps must be >= 0, got {offered_qps!r}"
        )
    if speed_mps <= 0:
        raise SimulationError(f"speed must be > 0, got {speed_mps!r}")
    if tick_us <= 0:
        raise SimulationError(f"tick must be > 0, got {tick_us!r}")
    if recheck_m is None:
        recheck_m = router.cache_resolution_m
    if recheck_m <= 0:
        raise SimulationError(f"recheck_m must be > 0, got {recheck_m!r}")
    if engine not in ENGINES:
        raise SimulationError(
            f"unknown engine {engine!r}; expected one of {ENGINES}"
        )
    # Imported here: the session module imports this one.
    from repro.wsdb.session import ClusterPath, run_session

    return run_session(
        ClusterPath(
            router,
            offered_qps=offered_qps,
            push=push,
            rate_limit_qps=rate_limit_qps,
            burst_size=burst_size,
            policy=policy,
            storm_source=storm_source,
        ),
        engine,
        num_aps=num_aps,
        num_clients=num_clients,
        duration_us=duration_us,
        seed=seed,
        speed_mps=speed_mps,
        recheck_m=recheck_m,
        mic_events=mic_events,
        tick_us=tick_us,
        interference_radius_m=interference_radius_m,
        recorder=recorder,
        telemetry=telemetry,
        profiler=profiler,
        spans=spans,
    )
