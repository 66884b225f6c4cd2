"""The wsdb service tier: sharding, batching, admission, push.

:class:`~repro.wsdb.service.WhiteSpaceDatabase` is one in-process
database; serving a metro of millions needs a *cluster* in front of it.
This package layers that tier on top of the existing service without
changing a single response bit:

* :mod:`repro.wsdb.cluster.router` — :class:`ShardRouter`: K
  cell-aligned shards, each its own database over the territory's
  incumbent subset, with deterministic coordinate routing, mic fan-out,
  and per-shard / aggregate :class:`~repro.wsdb.service.WsdbStats`.
  Sharding shrinks the candidates a query scans; answers stay equal to
  the unsharded database's.
* :mod:`repro.wsdb.cluster.frontend` — :class:`BatchFrontend`: bursts
  coalesced by cell into per-shard batched calls, token-bucket
  admission clocked by simulation time, and two shed policies
  (``reject`` vs ``serve-stale``) with shed/deferred accounting.
* :mod:`repro.wsdb.cluster.push` — :class:`PushRegistry`: PAWS-style
  device registration; a new protection zone notifies every subscribed
  device whose cell it touches, closing the pull model's violation
  window.
* :mod:`repro.wsdb.cluster.querystorm` — the driver behind the
  ``querystorm`` run kind: a synthetic query storm plus the roaming
  population plus the citywide deployment, all against one cluster,
  with push-vs-pull violation accounting.
"""

from repro.wsdb.cluster.frontend import (
    BatchFrontend,
    FrontendStats,
    SHED_POLICIES,
    TokenBucket,
)
from repro.wsdb.cluster.push import PushRegistry, PushStats
from repro.wsdb.cluster.querystorm import simulate_querystorm
from repro.wsdb.cluster.router import ShardRouter, ShardTerritory, shard_grid

__all__ = [
    "BatchFrontend",
    "FrontendStats",
    "PushRegistry",
    "PushStats",
    "SHED_POLICIES",
    "ShardRouter",
    "ShardTerritory",
    "TokenBucket",
    "shard_grid",
    "simulate_querystorm",
]
