#!/usr/bin/env python3
"""Cluster wsdb walkthrough: shard, batch, shed, push.

Builds a metro, stands a sharded database tier in front of it, and
walks the service-tier machinery end to end: deterministic routing and
the per-query candidate-scan win, burst coalescing through the batch
frontend, token-bucket shedding under a query storm (reject vs
serve-stale), and the PAWS-style push registry closing the pull
model's violation window on a dense roaming session.

Run:
    python examples/wsdb_cluster.py
"""

import random

from repro.wsdb import ShardRouter, free_channels, simulate_querystorm
from repro.wsdb.cluster import BatchFrontend, PushRegistry
from repro.wsdb.model import MicRegistration, generate_metro


def fresh_metro(extent_m: float = 20_000.0, seed: int = 99):
    # TV sites on channels 0-11; channels 12+ locally free between the
    # contours, which is what makes routing spatially interesting.
    return generate_metro(range(12), extent_m=extent_m, seed=seed, num_channels=30)


def main() -> None:
    # 1. Shard the plane.  Same metro, three cluster sizes: every
    #    response is identical, but each shard indexes only its
    #    territory's incumbents (at sqrt(K)-finer granularity), so the
    #    candidates a query scans fall as the cluster grows.
    rng = random.Random(7)
    points = [(rng.uniform(0, 20_000.0), rng.uniform(0, 20_000.0)) for _ in range(2_000)]
    print("sharding the same 20 km metro:")
    baseline = None
    for shards in (1, 4, 16):
        router = ShardRouter(fresh_metro(), num_shards=shards)
        answers = free_channels(router, points, t_us=0.0)
        if baseline is None:
            baseline = answers
        assert answers == baseline  # sharding never changes a response
        cols, rows = router.grid
        print(
            f"  {shards:>2} shards ({cols}x{rows}): "
            f"{router.candidates_per_query():.2f} candidates scanned/query"
        )

    # 2. Batch + coalesce.  A burst of queries in the same few cells
    #    becomes a handful of shard lookups; everyone shares the
    #    responses.
    router = ShardRouter(fresh_metro(), num_shards=4)
    frontend = BatchFrontend(router)
    burst = [(5_010.0 + i, 5_010.0) for i in range(50)]  # one 100 m cell
    frontend.query_batch(burst, t_us=0.0)
    stats = frontend.stats
    print(
        f"\nburst of {stats.requests} same-cell requests: "
        f"{stats.coalesced} coalesced into "
        f"{stats.shard_batches} shard batch(es)"
    )

    # 3. Rate limiting + shed policies.  A 300 qps storm against a
    #    100 qps bucket sheds ~2/3 of requests; "serve-stale" answers
    #    them from the last-known cell response instead of refusing.
    for policy in ("reject", "serve-stale"):
        report = simulate_querystorm(
            ShardRouter(fresh_metro(extent_m=2_500.0), num_shards=4),
            num_aps=8,
            num_clients=20,
            duration_us=120e6,
            seed=7,
            offered_qps=300.0,
            mic_events=2,
            rate_limit_qps=100.0,
            policy=policy,
        )
        f = report["frontend"]
        print(
            f"{policy:>12}: shed {f['shed']} of {f['requests']} "
            f"({f['shed_rate']:.0%}), served stale {f['served_stale']}, "
            f"client re-checks deferred {report['deferred_requeries']}"
        )

    # 4. Push vs pull.  A dense roaming storm with mid-session mic
    #    registrations: pull-only clients ride stale responses into
    #    protection zones until their next re-check; pushed clients
    #    are notified the tick the zone appears and vacate.
    print("\npush vs pull on a dense roaming storm:")
    for push in (False, True):
        report = simulate_querystorm(
            ShardRouter(fresh_metro(extent_m=2_500.0), num_shards=4),
            num_aps=10,
            num_clients=60,
            duration_us=300e6,
            seed=7,
            offered_qps=200.0,
            push=push,
            mic_events=12,
            speed_mps=6.0,
        )
        label = "push" if push else "pull"
        extra = (
            f", {report['push_refreshes']} push refreshes"
            if push
            else ""
        )
        print(
            f"  {label}: {report['violation_us'] / 1e6:.0f} s of "
            f"ground-truth violation across "
            f"{report['mic_events']} mic events{extra}"
        )

    # 5. The push registry itself, in miniature: subscribe two
    #    devices, register a zone, see exactly who hears about it.
    registry = PushRegistry(cache_resolution_m=100.0)
    registry.subscribe(0, 10, 10)   # cell centered ~1,050 m
    registry.subscribe(1, 100, 100)  # far corner
    zone = MicRegistration.single_session(14, 1_000.0, 1_000.0, 0.0, 60e6)
    notified = registry.notify_zone(zone)
    print(
        f"\nzone at (1000, 1000) notified devices {notified} "
        "(device 1, ~13 km away, slept through it)"
    )


if __name__ == "__main__":
    main()
