"""WhiteFi: White Space Networking with Wi-Fi like Connectivity.

A full reproduction of Bahl, Chandra, Moscibroda, Murty & Welsh
(SIGCOMM 2009) in pure Python:

* :mod:`repro.spectrum` — UHF band plan, spectrum maps, incumbents,
  fragmentation, synthetic geodata.
* :mod:`repro.phy` — width-scaled OFDM timing and time-domain IQ
  synthesis (the scanner's view of the air).
* :mod:`repro.sift` — SIFT: time-domain packet detection and width
  classification before any FFT.
* :mod:`repro.mac` — frames and DCF parameters.
* :mod:`repro.radio` — the KNOWS platform emulation (transceiver +
  scanner).
* :mod:`repro.sim` — the discrete-event CSMA/CA network simulator (the
  paper's QualNet substitute).
* :mod:`repro.core` — WhiteFi proper: the MCham metric, spectrum
  assignment, L-SIFT/J-SIFT AP discovery, and the chirping
  disconnection protocol.
* :mod:`repro.audio` — the wireless-microphone interference study
  substrate (synthetic speech, FM mic link, PESQ-lite MOS).
"""

from repro import constants
from repro.errors import (
    ChannelError,
    DiscoveryError,
    NoChannelAvailableError,
    ProtocolError,
    RadioError,
    ReproError,
    SignalError,
    SimulationError,
    SpectrumMapError,
    UnknownRunKindError,
)

# 1.6.0: repro.traces dense run recording (versioned event schema,
# columnar export, storm replay), the `storm_trace` spec knob, and the
# `replay` run kind.  The ResultCache is versioned by this string, so
# older cache entries are never served to the new kind set.
# 1.7.0: repro.telemetry (sim-clock metrics registry, wall-clock phase
# profiler, deterministic exporters) and the `telemetry` spec knob —
# every spec hash changes, so the version bump retires caches that
# predate the knob.
# 1.8.0: repro.detlint (AST determinism linter gating make check/CI)
# and seeded RNG fallbacks in phy/radio (FALLBACK_RNG_SEED).  No spec
# knob changed, but bare-rng call sites now produce different (seeded)
# samples, so cached results from unseeded runs must not be reused.
# 1.9.0: repro.telemetry.spans (sim-clock request-scoped span tracing
# with tail attribution) and the `spans` / `span_sample` spec knobs —
# every spec hash changes, so the version bump retires caches that
# predate the knobs.
# 1.10.0: the cluster request path runs on arrays and each querystorm
# tick sends its re-checkers as one frontend burst.  Answers, admission
# and recorded traces are unchanged, but querystorm counters change
# (frontend batches/coalesced, shard queries and cache hits, re-check
# span trees), so the version bump retires ResultCache entries that
# hold the old counters.
# 1.11.0: mobile clients draw their paths from one counter-based
# stream per fleet instead of one Mersenne Twister per client, and a
# roaming span table counts its database lookups as served requests.
# Every roaming and querystorm report and trace changes, so the version
# bump retires ResultCache entries that hold the old paths.
__version__ = "1.11.0"

__all__ = [
    "constants",
    "ReproError",
    "ChannelError",
    "SpectrumMapError",
    "NoChannelAvailableError",
    "SimulationError",
    "UnknownRunKindError",
    "RadioError",
    "DiscoveryError",
    "SignalError",
    "ProtocolError",
    "__version__",
]
