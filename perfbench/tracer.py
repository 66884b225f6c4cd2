"""Outside-in call tracer: wraps a module's public callables, keeps spans.

The program is never edited to be traced.  :meth:`Tracer.instrument`
replaces every public function and method of the given modules with a
wrapper, at the place the name is looked up:

* methods on their class (``cls.__dict__``), so every caller sees them;
* module-level functions in *every* loaded module that bound them by
  name (``from repro.wsdb.mobility import spawn_clients`` in
  ``repro.wsdb.vector`` is a second binding of the same function).

:meth:`Tracer.restore` puts every original back.

A *timed* wrapper records the call's duration and its self time (the
duration minus the durations of the timed calls nested inside it) and,
when the call lasts at least :attr:`Tracer.MIN_SPAN_S`, a span
``(name, start, end, id, parent)`` kept in memory.  Generator functions
are timed per resume, so a lazily consumed generator is charged for its
own work only; one span covers its lifetime.  A *counted* wrapper only
counts calls, and an *untraced* name is left alone: both are for leaf
helpers called millions of times, whose time then stays in the
caller's self time.

The wrappers' own work lands in the measured times: part inside a timed
call's window (charged to the call), part outside it (charged to its
caller), and all of a counted call's (charged to its caller).
:func:`calibrate` measures those three per-call costs on an empty
function; a tracer built with them subtracts them from every self and
inclusive time and reports them as ``overhead_s`` instead.

Run this file to self-test the self-time arithmetic on toy nested
calls under a fake clock::

    python3 perfbench/tracer.py
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import json
import sys
import time
import types
from pathlib import Path
from typing import Callable, Iterable, NamedTuple


class Costs(NamedTuple):
    """The wrappers' own seconds per call (see the module docstring)."""

    inside: float  # inside a timed call's window, charged to the call
    outside: float  # outside it, charged to the caller
    counted: float  # a counted call, charged to the caller


ZERO = Costs(0.0, 0.0, 0.0)


class Tracer:
    """Aggregates per wrapped callable plus a bounded in-memory span list.

    Args:
        clock: seconds clock (``time.perf_counter``; a fake one in the
            self-test).
        costs: the wrappers' own cost per call (from :func:`calibrate`),
            subtracted from the measured times.
    """

    #: Shortest call kept as a span; every call counts in the aggregates
    #: regardless.  A kept span's parent lasts at least as long, so the
    #: kept set is closed under parents.
    MIN_SPAN_S = 20e-6
    #: Most spans kept in memory (the aggregates stay exact past it;
    #: ``spans_dropped`` counts the overflow).
    SPAN_CAP = 250_000

    def __init__(self, clock: Callable[[], float] = time.perf_counter, costs: Costs = ZERO) -> None:
        self.clock = clock
        self.costs = costs
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total_s: list[float] = []
        self.self_s: list[float] = []
        self.overhead_s: list[float] = []
        self.spans: list[tuple[int, float, float, int, int]] = []
        self.spans_dropped = 0
        #: Return times of watched callables, by name.
        self.returns: dict[str, list[float]] = {}
        # One frame per open timed call: [child seconds, wrapper seconds
        # charged to it by its children, wrapper seconds nested deeper,
        # span id, parent span id].
        self._stack: list[list] = []
        self._seq = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ------------------------------------------------------------

    def _register(self, name: str) -> int:
        self.names.append(name)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        self.overhead_s.append(0.0)
        return len(self.names) - 1

    def _open(self, span_id: int = 0) -> list:
        """Push a frame for a timed call (a new span unless *span_id*)."""
        stack = self._stack
        if not span_id:
            self._seq = span_id = self._seq + 1
        frame = [0.0, 0.0, 0.0, span_id, stack[-1][3] if stack else 0]
        stack.append(frame)
        return frame

    def _close(self, fid: int, frame: list, t0: float, keep: bool = True) -> float:
        """Pop *frame*, charge its times, keep its span; returns the end time."""
        t1 = self.clock()
        stack = self._stack
        stack.pop()
        d = t1 - t0
        inside, outside, _ = self.costs
        own = inside + frame[1]
        self.total_s[fid] += d - own - frame[2]
        self.self_s[fid] += d - frame[0] - own
        self.overhead_s[fid] += own
        if stack:
            parent = stack[-1]
            parent[0] += d
            parent[1] += outside
            parent[2] += own + frame[2]
        if keep:
            self._keep_span(fid, t0, t1, frame[3], frame[4])
        return t1

    def _keep_span(self, fid: int, t0: float, t1: float, span_id: int, parent: int) -> None:
        if t1 - t0 >= self.MIN_SPAN_S:
            if len(self.spans) < self.SPAN_CAP:
                self.spans.append((fid, t0, t1, span_id, parent))
            else:
                self.spans_dropped += 1

    def timed(self, fn: Callable, name: str, watch: bool = False) -> Callable:
        """A wrapper recording duration, self time and a span per call."""
        fid = self._register(name)
        clock, calls, open_, close = self.clock, self.calls, self._open, self._close
        returns = self.returns.setdefault(name, []) if watch else None

        if inspect.isgeneratorfunction(fn):
            keep = self._keep_span

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                calls[fid] += 1
                frame = open_()
                span_id, parent = frame[3], frame[4]
                born = t0 = clock()
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        try:
                            item = next(gen)
                        except StopIteration:
                            return
                        finally:
                            close(fid, frame, t0, keep=False)
                        yield item
                        frame = open_(span_id)
                        t0 = clock()
                finally:
                    gen.close()
                    keep(fid, born, clock(), span_id, parent)

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            frame = open_()
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = close(fid, frame, t0)
                if returns is not None:
                    returns.append(t1)

        return wrapper

    def counted(self, fn: Callable, name: str) -> Callable:
        """A wrapper that only counts calls (time stays with the caller)."""
        fid = self._register(name)
        calls, stack, cost = self.calls, self._stack, self.costs.counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[fid] += 1
            if stack:
                stack[-1][1] += cost
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _patch(self, owner: object, attr: str, new: object) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def instrument(
        self,
        modules: Iterable[types.ModuleType],
        counted: frozenset[str] = frozenset(),
        untraced: frozenset[str] = frozenset(),
        watched: frozenset[str] = frozenset(),
        binders: Iterable[types.ModuleType] = (),
    ) -> None:
        """Wrap the public functions and methods defined in *modules*.

        Names are ``"<module>:<function>"`` or ``"<module>:<Class>.<method>"``.
        Those in *counted* get the counting wrapper, those in *untraced*
        none, those in *watched* also record return times.  A class's
        ``__init__`` is wrapped unless the class is a dataclass (value
        objects built in hot loops); other dunders, properties, private
        names and ``Protocol`` classes are left alone.  Module functions
        are rebound in every module of *binders* (plus *modules*) that
        holds them by name.
        """
        modules = list(modules)

        def wrap(fn: Callable, name: str) -> Callable | None:
            if name in untraced:
                return None
            if name in counted:
                return self.counted(fn, name)
            return self.timed(fn, name, watch=name in watched)

        functions: dict[int, Callable] = {}
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapper = wrap(obj, f"{module.__name__}:{attr}")
                    if wrapper is not None:
                        functions[id(obj)] = wrapper
                elif inspect.isclass(obj) and not getattr(obj, "_is_protocol", False):
                    for method, member in list(vars(obj).items()):
                        if not inspect.isfunction(member) or (
                            method.startswith("_")
                            and (method != "__init__" or dataclasses.is_dataclass(obj))
                        ):
                            continue
                        wrapper = wrap(member, f"{module.__name__}:{attr}.{method}")
                        if wrapper is not None:
                            self._patch(obj, method, wrapper)
        for module in [*modules, *binders]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and id(obj) in functions:
                    self._patch(module, attr, functions[id(obj)])

    def restore(self) -> None:
        """Put every original back; raises if one is not back in place."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        for owner, attr, original in self._patches:
            if vars(owner)[attr] is not original:
                raise RuntimeError(f"failed to restore {owner!r}.{attr}")
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def by_name(self) -> dict[str, tuple[int, float, float, float]]:
        """``name -> (calls, total_s, self_s, overhead_s)`` of every wrapped callable.

        ``total_s`` and ``self_s`` are net of the wrappers' estimated
        cost; ``overhead_s`` is the part of that cost the name's own
        self time was charged with.
        """
        return {
            name: (calls, total, own, overhead)
            for name, calls, total, own, overhead in zip(
                self.names, self.calls, self.total_s, self.self_s, self.overhead_s
            )
        }

    def write_chrome(self, path: Path, meta: dict) -> None:
        """The kept spans as a Chrome trace-event file (opens in Perfetto)."""
        origin = min((s[1] for s in self.spans), default=0.0)
        events = []
        for fid, t0, t1, span_id, parent in sorted(self.spans, key=lambda s: s[3]):
            module, qualname = self.names[fid].split(":", 1)
            events.append({
                "name": qualname, "cat": module, "ph": "X", "pid": 1, "tid": 1,
                "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
                "args": {"id": span_id, "parent": parent},
            })
        meta = {**meta, "spans_kept": len(events), "spans_dropped": self.spans_dropped,
                "min_span_us": self.MIN_SPAN_S * 1e6, "wrapper_costs_s": self.costs._asdict()}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "otherData": meta,
                                    "displayTimeUnit": "ms"}, sort_keys=True))


#: Calls per calibration loop, and loops per cost.
CALIBRATION_CALLS = 10_000
CALIBRATION_REPEATS = 9


def calibrate() -> Costs:
    """The wrappers' own cost per call, measured on an empty function.

    A timed loop calls the empty function CALIBRATION_CALLS times
    unwrapped, through a timed wrapper and through a counted wrapper.
    The timed wrapper's cost inside the window is the empty call's self
    time; the rest of what it adds to the loop is charged outside it.
    Each cost is the least of CALIBRATION_REPEATS estimates, since noise
    only adds time.
    """
    calls = CALIBRATION_CALLS

    def empty() -> None:
        pass

    def loop(fn: Callable) -> None:
        for _ in range(calls):
            fn()

    estimates = []
    for _ in range(CALIBRATION_REPEATS):
        probe = Tracer()
        timed, counted = probe.timed(empty, "timed"), probe.counted(empty, "counted")
        probe.timed(loop, "bare")(empty)
        probe.timed(loop, "through-timed")(timed)
        probe.timed(loop, "through-counted")(counted)
        agg = probe.by_name()
        bare = agg["bare"][1]
        inside = agg["timed"][2] / calls
        outside = (agg["through-timed"][1] - bare) / calls - inside
        estimates.append((inside, outside, (agg["through-counted"][1] - bare) / calls))
    return Costs(*(max(0.0, min(column)) for column in zip(*estimates)))


# -- self-test -----------------------------------------------------------------


class _FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


_TOY_SOURCE = """
def leaf(clock):
    clock.now += 1

def core(clock):
    clock.now += 1

def hot(clock):
    clock.now += 100

def inner(clock):
    clock.now += 2
    core(clock)
    leaf(clock)

def items(clock):
    for i in range(2):
        clock.now += 1
        core(clock)
        yield i

def outer(clock):
    clock.now += 10
    inner(clock)
    clock.now += 5
    inner(clock)
    hot(clock)
    for _ in items(clock):
        clock.now += 7
"""


def _trace_toy(costs: Costs) -> Tracer:
    clock = _FakeClock()
    toy = types.ModuleType("toy")
    exec(_TOY_SOURCE, toy.__dict__)
    originals = dict(vars(toy))
    tracer = Tracer(clock=clock, costs=costs)
    tracer.instrument(
        [toy],
        counted=frozenset({"toy:leaf"}),
        untraced=frozenset({"toy:hot"}),
        watched=frozenset({"toy:inner"}),
    )
    if toy.hot is not originals["hot"]:
        raise AssertionError("an untraced name was wrapped")
    toy.outer(clock)
    tracer.restore()
    if any(vars(toy)[k] is not v for k, v in originals.items()):
        raise AssertionError("restore left a wrapper in place")
    return tracer


def self_test() -> None:
    """Check the self-time arithmetic on toy nested calls; raises on error.

    ``outer`` works 10, calls ``inner`` (2, a timed ``core`` of 1 and a
    counted ``leaf`` of 1), works 5, calls ``inner`` again and an
    untraced ``hot`` (100), then drains a two-item generator whose every
    resume works 1 and calls ``core`` while ``outer`` works 7 per item
    between resumes.  The fake clock costs the wrappers nothing, so a
    second pass with made-up wrapper costs checks that exactly those are
    taken off.
    """
    tracer = _trace_toy(ZERO)
    got = tracer.by_name()
    # outer: 10 + 4 + 5 + 4 + 100 + (2 + 7) * 2 = 141; its timed children
    # are inner (8) and items (4); leaf's and hot's time stays with the caller.
    expected = {
        "toy:outer": (1, 141.0, 129.0, 0.0),
        "toy:inner": (2, 8.0, 6.0, 0.0),
        "toy:core": (4, 4.0, 4.0, 0.0),
        "toy:items": (1, 4.0, 2.0, 0.0),
        "toy:leaf": (2, 0.0, 0.0, 0.0),
    }
    if got != expected:
        raise AssertionError(f"self-time arithmetic: {got} != {expected}")
    if sum(row[2] for row in got.values()) != got["toy:outer"][1]:
        raise AssertionError("self times do not sum to the root's duration")
    if tracer.returns["toy:inner"] != [14.0, 23.0]:
        raise AssertionError(f"return times {tracer.returns['toy:inner']}")
    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(tracer.names[span[0]].split(":")[1], []).append(span)
    if {k: len(v) for k, v in by_name.items()} != {"outer": 1, "inner": 2, "core": 4, "items": 1}:
        raise AssertionError(f"spans {tracer.spans}")
    (root,), (items,) = by_name["outer"], by_name["items"]
    parents = [s[4] for s in (root, *by_name["inner"], items, *by_name["core"])]
    # core's parents: each inner call, then the generator's span (every resume).
    if parents != [0, root[3], root[3], root[3], *(s[3] for s in by_name["inner"]), items[3], items[3]]:
        raise AssertionError(f"span parents {tracer.spans}")
    if items[1:3] != (123.0, 141.0):
        raise AssertionError(f"generator lifetime span {items}")

    # Each timed window (outer 1, inner 2, core 4, items 3 resumes) pays
    # `inside`; each caller pays `outside` per timed child window (outer
    # 5, inner 1 each, items 2) and `counted` per counted call (inner 1
    # each).  Inclusive times also lose what is charged deeper down.
    inside, outside, counted = 0.25, 0.5, 0.125
    got = _trace_toy(Costs(inside, outside, counted)).by_name()
    expected = {
        "toy:outer": (1, 141.0 - 10 * inside - 9 * outside - 2 * counted,
                      129.0 - inside - 5 * outside, inside + 5 * outside),
        "toy:inner": (2, 8.0 - 4 * inside - 2 * outside - 2 * counted,
                      6.0 - 2 * (inside + outside + counted), 2 * (inside + outside + counted)),
        "toy:core": (4, 4.0 - 4 * inside, 4.0 - 4 * inside, 4 * inside),
        "toy:items": (1, 4.0 - 5 * inside - 2 * outside, 2.0 - 3 * inside - 2 * outside,
                      3 * inside + 2 * outside),
        "toy:leaf": (2, 0.0, 0.0, 0.0),
    }
    if got != expected:
        raise AssertionError(f"net of wrapper costs: {got} != {expected}")
    if sum(row[2] for row in got.values()) != got["toy:outer"][1]:
        raise AssertionError("net self times do not sum to the net root")
    if sum(row[2] + row[3] for row in got.values()) != 141.0:
        raise AssertionError("net self times plus overheads do not sum to the root")


if __name__ == "__main__":
    self_test()
    print("tracer self-test passed")
    sys.exit(0)
