"""Parallel seed sweeps: fan a spec x seed grid across processes.

``ParallelRunner`` executes a grid of :class:`ExperimentSpec` jobs on a
``concurrent.futures.ProcessPoolExecutor``.  Every job travels as
canonical JSON and comes back as canonical JSON, so the parallel path,
the sequential fallback, and the result cache all produce byte-identical
records: simulations seed every stream from the scenario's master seed
(via :mod:`repro.sim.rng`), never from process-global state.

On machines (or sandboxes) where worker processes are unavailable, the
runner degrades to in-process sequential execution with identical
results — parallelism is purely a wall-clock optimization.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from typing import Iterable, Sequence

from repro.errors import UnknownRunKindError
from repro.experiments.registry import run_experiment
from repro.experiments.results import ExperimentResult, ResultCache
from repro.experiments.spec import ExperimentSpec
from repro.sim.rng import stream_seed

__all__ = ["ParallelRunner", "sweep_seeds"]


def sweep_seeds(master_seed: int, count: int) -> tuple[int, ...]:
    """*count* independent scenario seeds derived from one master seed.

    Pure and stable across processes: repeat runs of a sweep regenerate
    the same seed grid (and therefore hit the result cache).
    """
    return tuple(stream_seed(master_seed, "sweep", i) for i in range(count))


def _execute_json(payload: str) -> str:
    """Worker entry point: spec JSON in, result JSON out."""
    spec = ExperimentSpec.from_json(payload)
    return run_experiment(spec).to_json()


def _spread_worker(counter, cpus: tuple[int, ...]) -> None:
    """Worker initializer: start each worker on its own CPU.

    A forked worker starts on its parent's CPU, and where the kernel does
    not load-balance (a cpuset with ``sched_load_balance`` off, isolated
    CPUs) it never moves, so every worker of the pool shares one core.
    Worker *k* is moved to ``cpus[k % len(cpus)]`` and then given its
    full affinity back: a placement, not a pin, so a balancing scheduler
    stays free to move it later.
    """
    with counter.get_lock():
        k = counter.value
        counter.value += 1
    try:
        os.sched_setaffinity(0, {cpus[k % len(cpus)]})
        os.sched_setaffinity(0, cpus)
    except OSError:
        pass  # placement is an optimization; the worker runs anywhere


class ParallelRunner:
    """Executes experiment grids across worker processes.

    Args:
        max_workers: worker process count.  ``None`` uses the CPU count;
            ``0`` or ``1`` forces in-process sequential execution.
        cache: optional spec-hash-keyed result cache consulted before
            dispatch and updated after every run.
        profiler: optional wall-clock
            :class:`~repro.telemetry.PhaseProfiler`; grids then time
            their "plan" (grid expansion + cache probing) and
            "fan-out" (execution, parallel or sequential) phases.
            Wall-clock only — results stay byte-identical with or
            without it.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        cache: ResultCache | None = None,
        profiler=None,
    ):
        if max_workers is None:
            max_workers = os.cpu_count() or 1
        if max_workers < 0:
            raise ValueError(f"max_workers must be >= 0, got {max_workers}")
        self.max_workers = max_workers
        self.cache = cache
        if profiler is None:
            from repro.telemetry import NULL_PROFILER

            profiler = NULL_PROFILER
        self.profiler = profiler
        #: How the last grid actually executed ("parallel", "sequential",
        #: or "cached" when every cell hit the cache) — for diagnostics.
        self.last_execution_mode: str | None = None

    # -- grid construction -----------------------------------------------------

    @staticmethod
    def expand_grid(
        specs: ExperimentSpec | Iterable[ExperimentSpec],
        seeds: Sequence[int] | None = None,
    ) -> list[ExperimentSpec]:
        """The job list for a spec x seed grid, in deterministic order.

        With ``seeds=None`` each spec runs once under its own scenario
        seed; otherwise every spec is re-seeded with every seed (specs
        outer, seeds inner).
        """
        if isinstance(specs, ExperimentSpec):
            specs = [specs]
        jobs: list[ExperimentSpec] = []
        for spec in specs:
            if seeds is None:
                jobs.append(spec)
            else:
                jobs.extend(spec.with_seed(seed) for seed in seeds)
        return jobs

    # -- execution -------------------------------------------------------------

    def run_grid(
        self,
        specs: ExperimentSpec | Iterable[ExperimentSpec],
        seeds: Sequence[int] | None = None,
    ) -> list[ExperimentResult]:
        """Run the spec x seed grid; results in grid order.

        Cached cells are returned without execution.  The remaining jobs
        run on worker processes when ``max_workers > 1`` (falling back to
        sequential execution if the pool cannot be created), in-process
        otherwise.
        """
        with self.profiler.phase("plan"):
            jobs = self.expand_grid(specs, seeds)
            results: dict[int, ExperimentResult] = {}
            pending: list[tuple[int, ExperimentSpec]] = []
            seen_hashes: dict[str, int] = {}
            duplicates: list[tuple[int, int]] = []
            for i, job in enumerate(jobs):
                first = seen_hashes.get(job.spec_hash)
                if first is not None:
                    # Identical cell already in this grid: run once,
                    # share.
                    duplicates.append((i, first))
                    continue
                seen_hashes[job.spec_hash] = i
                cached = (
                    self.cache.get(job.spec_hash)
                    if self.cache is not None
                    else None
                )
                if cached is not None:
                    results[i] = cached
                else:
                    pending.append((i, job))

        with self.profiler.phase("fan-out"):
            if not pending:
                self.last_execution_mode = "cached"
            elif self.max_workers > 1:
                self.last_execution_mode = "parallel"
                try:
                    self._run_parallel(pending, results)
                except (OSError, BrokenExecutor, UnknownRunKindError):
                    # Process pools need fork/spawn and semaphores
                    # (OSError inside restricted sandboxes) and workers
                    # can die mid-sweep (BrokenProcessPool): degrade
                    # gracefully, re-running only the cells that did
                    # not complete.  UnknownRunKindError from a worker
                    # covers plugin RunKinds under spawn-based
                    # multiprocessing (the registration only exists in
                    # the parent): the sequential path can still run
                    # them.  Any other simulation failure is
                    # deterministic and propagates without a wasteful
                    # sequential replay.
                    self.last_execution_mode = "sequential"
                    remaining = [p for p in pending if p[0] not in results]
                    self._run_sequential(remaining, results)
            else:
                self.last_execution_mode = "sequential"
                self._run_sequential(pending, results)

        for index, first in duplicates:
            results[index] = results[first]
        return [results[i] for i in range(len(jobs))]

    def _store(self, index: int, payload: str, results: dict) -> None:
        result = ExperimentResult.from_json(payload)
        results[index] = result
        if self.cache is not None:
            try:
                self.cache.put(result)
            except OSError:
                # The cache is an optimization: an unwritable directory
                # or full disk must not abort the sweep (or trip the
                # broken-pool fallback and recompute the grid).
                pass

    def _run_sequential(
        self, pending: list[tuple[int, ExperimentSpec]], results: dict
    ) -> None:
        for index, job in pending:
            self._store(index, _execute_json(job.to_json()), results)

    def _run_parallel(
        self, pending: list[tuple[int, ExperimentSpec]], results: dict
    ) -> None:
        workers = min(self.max_workers, len(pending))
        spread = {}
        if hasattr(os, "sched_getaffinity"):
            spread = dict(
                initializer=_spread_worker,
                initargs=(
                    multiprocessing.Value("i", 0),
                    tuple(sorted(os.sched_getaffinity(0))),
                ),
            )
        with ProcessPoolExecutor(max_workers=workers, **spread) as executor:
            payloads = executor.map(
                _execute_json, [job.to_json() for _, job in pending]
            )
            for (index, _), payload in zip(pending, payloads):
                self._store(index, payload, results)
