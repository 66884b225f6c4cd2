#!/usr/bin/env python3
"""Citywide wsdb walkthrough: query, cache, invalidate, re-assign.

Builds a suburban metro with TV transmitter sites, stands up the
geolocation database, assigns channels to a handful of APs off database
responses, then registers a wireless microphone *on top of* one AP
mid-session — watch the database invalidate the cached responses inside
the protection zone and the covered AP walk its backup channels to a
new home.

Run:
    python examples/citywide_wsdb.py
"""

from repro.wsdb import (
    MicRegistration,
    WhiteSpaceDatabase,
    free_channels,
    generate_metro_for_setting,
)
from repro.wsdb.citywide import CityAp, assign_ap


def fmt(channel) -> str:
    return "-" if channel is None else str(channel)


def main() -> None:
    # 1. A metro plane whose dial follows the paper's suburban setting.
    metro = generate_metro_for_setting("suburban", seed=7)
    print(f"metro: {len(metro.sites)} TV sites on dial {metro.dial()}")

    db = WhiteSpaceDatabase(metro)

    # 2. Five APs across the plane, assigned off database responses.
    positions = [(3e3, 3e3), (3.05e3, 3.08e3), (10e3, 10e3), (17e3, 4e3), (6e3, 16e3)]
    aps = [CityAp(i, x, y) for i, (x, y) in enumerate(positions)]
    for ap in aps:
        assign_ap(ap, db, aps, t_us=0.0)
        print(
            f"  ap{ap.ap_id} at ({ap.x_m / 1e3:4.1f}, {ap.y_m / 1e3:4.1f}) km"
            f" -> {fmt(ap.channel)}  backups: "
            + ", ".join(fmt(b) for b in ap.backups)
        )
    stats = db.stats
    print(
        f"boot: {stats.queries} queries, {stats.cache_hits} cache hits "
        f"(ap1 sits in ap0's 100 m cache square)"
    )

    # 3. A venue registers a wireless microphone on ap0's channel,
    #    right at ap0's coordinates, from t=30 s to minute 6.  The
    #    session overlaps the boot responses' TTL bucket, so the
    #    time-aware invalidation drops them (a session starting after
    #    the bucket ends would — correctly — leave them alone).
    victim = aps[0]
    mic_channel = victim.channel.center_index
    dropped = db.register_mic(
        MicRegistration.single_session(
            mic_channel, victim.x_m, victim.y_m, 30e6, 360e6
        )
    )
    print(
        f"\nmic registers on ch{mic_channel} at ap0's venue: "
        f"{dropped} cached responses invalidated "
        f"(total invalidations: {db.stats.invalidations})"
    )

    # 4. The covered AP re-checks the database and moves: its old span
    #    is denied, its ranked backups are validated against a fresh
    #    response.
    [fresh] = free_channels(db, [(victim.x_m, victim.y_m)], t_us=60e6)
    free = set(fresh)
    print(f"  fresh response at ap0 excludes ch{mic_channel}: {mic_channel not in free}")
    old = victim.channel
    backup = next(
        (b for b in victim.backups if all(i in free for i in b.spanned_indices)),
        None,
    )
    if backup is not None:
        victim.channel = backup
        print(f"  ap0 recovers via backup: {fmt(old)} -> {fmt(backup)}")
    else:
        assign_ap(victim, db, aps, t_us=60e6)
        print(f"  ap0 re-assigns via MCham: {fmt(old)} -> {fmt(victim.channel)}")

    # 5. After the session ends the channel is clean again.
    [late] = free_channels(db, [(victim.x_m, victim.y_m)], t_us=400e6)
    late = set(late)
    print(f"  mic session over at t=400 s: ch{mic_channel} free again: {mic_channel in late}")
    print(
        f"\ndatabase totals: {db.stats.queries} queries, "
        f"{db.stats.cache_hits} hits, {db.stats.cache_misses} misses, "
        f"{db.stats.invalidations} invalidations "
        f"(hit rate {db.stats.hit_rate:.0%})"
    )


if __name__ == "__main__":
    main()
