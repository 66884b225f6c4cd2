"""Unit tests for the wall-clock phase profiler."""

import json

import pytest

from repro.telemetry import NULL_PROFILER, PhaseProfiler
from repro.wsdb.mobility import simulate_roaming
from repro.wsdb.model import generate_metro
from repro.wsdb.service import WhiteSpaceDatabase


class FakeClock:
    """A deterministic perf_counter stand-in: each read advances 1 s."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        self.now += 1.0
        return self.now


class TestPhaseProfiler:
    def test_phase_accumulates_across_entries(self):
        prof = PhaseProfiler(clock=FakeClock())
        with prof.phase("advance"):
            pass
        with prof.phase("advance"):
            pass
        with prof.phase("associate"):
            pass
        assert prof.seconds() == {"advance": 2.0, "associate": 1.0}
        assert prof.report() == {
            "advance": {"seconds": 2.0, "calls": 2},
            "associate": {"seconds": 1.0, "calls": 1},
        }

    def test_phase_records_even_on_exception(self):
        prof = PhaseProfiler(clock=FakeClock())
        try:
            with prof.phase("boom"):
                raise RuntimeError("mid-phase")
        except RuntimeError:
            pass
        assert prof.report()["boom"]["calls"] == 1

    def test_seconds_sorted_by_name(self):
        prof = PhaseProfiler(clock=FakeClock())
        prof.add("zeta", 1.0)
        prof.add("alpha", 2.0)
        assert list(prof.seconds()) == ["alpha", "zeta"]

    def test_write_artifact(self, tmp_path):
        prof = PhaseProfiler(clock=FakeClock())
        with prof.phase("advance"):
            pass
        out = prof.write(tmp_path / "deep" / "run.profile.json", meta={"k": 1})
        payload = json.loads(out.read_text())
        assert payload["meta"] == {"k": 1}
        assert payload["phases"]["advance"] == {"seconds": 1.0, "calls": 1}

    def test_write_chrome_artifact(self, tmp_path):
        prof = PhaseProfiler(clock=FakeClock())
        prof.add("batch-lookup", 2.0)
        prof.add("advance", 1.0)
        out = prof.write_chrome(
            tmp_path / "run.profile-chrome.json", meta={"kind": "roaming"}
        )
        payload = json.loads(out.read_text())
        assert payload["metadata"] == {"kind": "roaming"}
        events = payload["traceEvents"]
        # One complete event per phase, head-to-tail in name order.
        assert [e["name"] for e in events] == ["advance", "batch-lookup"]
        assert all(e["ph"] == "X" for e in events)
        assert events[0]["ts"] == 0.0
        assert events[0]["dur"] == 1e6
        assert events[1]["ts"] == 1e6
        assert events[1]["dur"] == 2e6
        assert events[1]["args"] == {"calls": 1, "seconds": 2.0}

    def test_real_clock_measures_nonnegative(self):
        prof = PhaseProfiler()
        with prof.phase("p"):
            sum(range(1000))
        assert prof.seconds()["p"] >= 0.0


class TestNullProfiler:
    def test_phase_context_is_reusable(self):
        # The shared nullcontext must survive nested and repeated use.
        with NULL_PROFILER.phase("a"):
            with NULL_PROFILER.phase("b"):
                pass
        with NULL_PROFILER.phase("a"):
            pass


@pytest.mark.parametrize("engine", ["scalar", "vector"])
def test_roaming_phases_observe_only(engine):
    # The roaming twin of the querystorm profiler test: profiling never
    # changes the report, and both engines time the same phases: set-up
    # (AP boot, fleet spawn) and the tick's stages.
    pytest.importorskip("numpy")

    def run(**extra):
        metro = generate_metro(range(10), extent_m=3_000.0, seed=7)
        return simulate_roaming(
            WhiteSpaceDatabase(metro),
            num_aps=6,
            num_clients=20,
            duration_us=30e6,
            seed=7,
            mic_events=2,
            engine=engine,
            **extra,
        )

    profiler = PhaseProfiler()
    assert run(profiler=profiler) == run()
    assert set(profiler.seconds()) == {
        "advance",
        "associate",
        "batch-lookup",
        "boot",
        "compliance",
        "recheck-detect",
        "spawn",
    }
    assert profiler.report()["spawn"]["calls"] == 1
    assert profiler.report()["boot"]["calls"] == 1
