"""Geolocation white-space database: the post-sensing FCC regime.

WhiteFi's nodes *sense* incumbents; the ecosystem that followed
standardized on **geolocation databases** — APs query a service for the
channels available at their coordinate.  This package supplies that
missing layer as a deterministic, seedable simulation component:

* :mod:`repro.wsdb.model` — the spatial ground truth: TV transmitter
  sites and wireless-microphone registrations on a 2-D metro plane,
  with protected contours derived from power (reusing the
  :mod:`repro.spectrum.incumbents` records and the
  :mod:`repro.spectrum.geodata` locale settings).
* :mod:`repro.wsdb.index` — a uniform-grid spatial index answering
  point availability queries without scanning every incumbent.
* :mod:`repro.wsdb.service` — :class:`WhiteSpaceDatabase`: the query
  façade with a TTL + LRU response cache, mic-registration
  invalidation, and query/hit/miss counters.
* :mod:`repro.wsdb.citywide` — the city-scale workload driver behind
  the ``citywide`` run kind: many APs assigning channels off database
  responses via MCham, with backup-channel recovery on mic events.
* :mod:`repro.wsdb.mobility` — the mobile-client workload behind the
  ``roaming`` run kind: seeded waypoint paths, the FCC 100 m re-check
  rule (re-query on cell crossing or TTL expiry), nearest-AP
  association with handoffs, and mic-zone channel vacation.
* :mod:`repro.wsdb.session` — the one tick loop the roaming and
  querystorm drivers share, run over a fleet (the per-client
  ``ScalarFleet`` oracle or the columnar ``VectorFleet``) and a query
  path (the database directly, or the cluster frontend).
* :mod:`repro.wsdb.vector` — the columnar numpy fleet
  (``engine="vector"`` on the roaming/querystorm kinds): whole-fleet
  array ops per tick, bit-identical reports, scales to millions of
  clients.
* :mod:`repro.wsdb.cluster` — the service tier: ``ShardRouter`` (K
  cell-aligned shards, each its own database), ``BatchFrontend``
  (per-shard batching, token-bucket admission, ``reject`` /
  ``serve-stale`` shedding), ``PushRegistry`` (PAWS-style zone notifications), and the
  ``querystorm`` workload driver.
"""

from repro.wsdb.citywide import (
    CityAp,
    MicEvent,
    assign_ap,
    boot_aps,
    displace_covered_aps,
    generate_mic_events,
    simulate_citywide,
)
from repro.wsdb.cluster import (
    BatchFrontend,
    PushRegistry,
    ShardRouter,
    simulate_querystorm,
)
from repro.wsdb.mobility import (
    ENGINES,
    FleetColumns,
    associate_nearest,
    simulate_roaming,
)
from repro.wsdb.index import GridIndex
from repro.wsdb.model import (
    Metro,
    MicRegistration,
    TvTransmitterSite,
    generate_metro,
    generate_metro_for_setting,
    protected_radius_m,
)
from repro.wsdb.service import (
    AvailabilityService,
    WhiteSpaceDatabase,
    WsdbStats,
    free_channels,
)

__all__ = [
    "AvailabilityService",
    "BatchFrontend",
    "CityAp",
    "ENGINES",
    "FleetColumns",
    "GridIndex",
    "Metro",
    "MicEvent",
    "MicRegistration",
    "PushRegistry",
    "ShardRouter",
    "TvTransmitterSite",
    "WhiteSpaceDatabase",
    "WsdbStats",
    "assign_ap",
    "associate_nearest",
    "boot_aps",
    "displace_covered_aps",
    "free_channels",
    "generate_metro",
    "generate_metro_for_setting",
    "generate_mic_events",
    "protected_radius_m",
    "simulate_citywide",
    "simulate_querystorm",
    "simulate_roaming",
]
