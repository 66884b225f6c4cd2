"""Tests for the PushRegistry: subscription move semantics, zone
fan-out geometry, deterministic notification order, and counters."""

import numpy as np
import pytest

from repro.errors import SpectrumMapError
from repro.wsdb.cluster.push import PushRegistry, PushStats
from repro.wsdb.index import circle_intersects_cell
from repro.wsdb.model import MicRegistration


def zone(x_m: float, y_m: float, radius_m: float = 500.0) -> MicRegistration:
    return MicRegistration.single_session(
        14, x_m, y_m, 0.0, 60e6, radius_m=radius_m
    )


class TestSubscriptions:
    def test_subscribe_move_unsubscribe(self):
        registry = PushRegistry(100.0)
        registry.subscribe(1, 5, 5)
        assert len(registry) == 1
        assert registry.subscribed_cell(1) == (5, 5)
        # Same cell: a no-op, not a move.
        registry.subscribe(1, 5, 5)
        assert registry.stats.subscriptions == 1
        assert registry.stats.moves == 0
        # New cell: the old subscription is released.
        registry.subscribe(1, 6, 5)
        assert registry.stats.moves == 1
        assert registry.subscribed_cell(1) == (6, 5)
        registry.unsubscribe(1)
        assert len(registry) == 0
        assert registry.subscribed_cell(1) is None
        # Absent device: a no-op.
        registry.unsubscribe(1)
        assert registry.stats.unsubscriptions == 1

    def test_invalid_resolution_raises(self):
        with pytest.raises(SpectrumMapError):
            PushRegistry(0.0)


class TestNotification:
    def test_zone_notifies_exactly_the_touched_cells(self):
        registry = PushRegistry(100.0)
        registry.subscribe(0, 10, 10)   # cell [1000, 1100)^2 — inside
        registry.subscribe(1, 14, 10)   # cell edge at 1400 m — grazed
        registry.subscribe(2, 30, 30)   # ~2.8 km away — untouched
        notified = registry.notify_zone(zone(1_050.0, 1_050.0, radius_m=400.0))
        assert notified == (0, 1)
        assert registry.stats.zones_notified == 1
        assert registry.stats.notifications == 2

    def test_notification_order_is_sorted_by_device_id(self):
        registry = PushRegistry(100.0)
        # Subscribe in scrambled order across two touched cells.
        for device_id, cell in ((9, (10, 10)), (2, (11, 10)), (7, (10, 11))):
            registry.subscribe(device_id, *cell)
        assert registry.notify_zone(zone(1_100.0, 1_100.0)) == (2, 7, 9)

    def test_zone_missing_everyone_notifies_nobody(self):
        registry = PushRegistry(100.0)
        registry.subscribe(0, 50, 50)
        assert registry.notify_zone(zone(100.0, 100.0)) == ()
        assert registry.stats.zones_notified == 0
        assert registry.stats.notifications == 0

    def test_shared_cell_notifies_every_subscriber(self):
        registry = PushRegistry(100.0)
        for device_id in (3, 1, 2):
            registry.subscribe(device_id, 10, 10)
        assert registry.notify_zone(zone(1_050.0, 1_050.0)) == (1, 2, 3)

    def test_geometry_matches_the_service_invalidation_predicate(self):
        # A device whose cell corner just touches the zone boundary is
        # notified (boundary-inclusive, like cache invalidation); one
        # cell further out is not.
        registry = PushRegistry(100.0)
        registry.subscribe(0, 15, 10)  # nearest corner (1500, 1000)
        registry.subscribe(1, 16, 10)  # nearest corner (1600, 1000)
        notified = registry.notify_zone(zone(1_000.0, 1_000.0, radius_m=500.0))
        assert notified == (0,)


class TestArraySubscriptions:
    """The per-device cell columns against a dict-of-cells reference
    book driven one device at a time."""

    def test_fleet_subscribe_matches_one_device_at_a_time(self):
        rng = np.random.default_rng(7)
        registry = PushRegistry(100.0)
        book: dict[int, tuple[int, int]] = {}
        expected = PushStats()
        for step in range(40):
            n = int(rng.integers(1, 30))
            devices = rng.choice(60, size=n, replace=False)
            qx = rng.integers(8, 14, size=n)
            qy = rng.integers(8, 14, size=n)
            registry.subscribe(devices, qx, qy)
            for d, x, y in zip(devices.tolist(), qx.tolist(), qy.tolist()):
                if d not in book:
                    expected.subscriptions += 1
                elif book[d] != (x, y):
                    expected.moves += 1
                book[d] = (x, y)
            if step % 7 == 3:
                gone = int(rng.integers(0, 60))
                registry.unsubscribe(gone)
                if book.pop(gone, None) is not None:
                    expected.unsubscriptions += 1
            reg = zone(float(rng.uniform(800, 1_400)), 1_100.0, 250.0)
            touched = sorted(
                d
                for d, (x, y) in book.items()
                if circle_intersects_cell(
                    reg.x_m, reg.y_m, reg.radius_m, x, y, 100.0
                )
            )
            assert registry.notify_zone(reg) == tuple(touched)
            expected.zones_notified += bool(touched)
            expected.notifications += len(touched)
            assert registry.stats == expected
            assert len(registry) == len(book)
            for d in range(61):
                assert registry.subscribed_cell(d) == book.get(d)

    def test_negative_device_id_raises(self):
        with pytest.raises(SpectrumMapError):
            PushRegistry(100.0).subscribe([-1], [0], [0])
