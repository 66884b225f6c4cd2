"""PAWS-style push notifications: registered devices hear about zones.

The pull-only FCC regime leaves a **violation window**: a device
re-checks the database only after moving ~100 m (or on TTL expiry), so
a microphone registering *between* re-checks is protected on paper
while the device keeps transmitting on its stale response — the
staleness :func:`~repro.wsdb.mobility.simulate_roaming` scores as
``violation_ticks``.  The PAWS protocol (RFC 7545, the IETF
standardization of these databases) closes it with *registration*:
a device subscribes with its location, and the database **pushes** a
notification when a new protection zone can change the device's
response.

:class:`PushRegistry` is that subscription book, cell-granular like the
response protocol itself: a device subscribes to its current
quantization cell (moving is an idempotent re-subscribe), and
:meth:`notify_zone` fans a new zone out to every device whose
subscribed cell the zone touches — the same
:func:`~repro.wsdb.index.circle_intersects_cell` predicate the service
uses to invalidate cached responses, so a device is notified exactly
when its cached response may have changed.  Notification order is
sorted by device id, keeping fan-out deterministic for the
byte-identical parallel/sequential contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from repro.errors import SpectrumMapError
from repro.wsdb.index import circle_intersects_cells
from repro.wsdb.model import MicRegistration
from repro.wsdb.service import DEFAULT_CACHE_RESOLUTION_M

__all__ = ["PushRegistry", "PushStats"]


@dataclass
class PushStats:
    """Registry counters for benchmarking the push path.

    Attributes:
        subscriptions: first-time device registrations.
        moves: re-subscriptions that changed a device's cell.
        unsubscriptions: devices dropped from the book.
        zones_notified: zone events that reached at least one device.
        notifications: total device notifications delivered (the
            fan-out; one zone touching five subscribed cells delivers
            five).
    """

    subscriptions: int = 0
    moves: int = 0
    unsubscriptions: int = 0
    zones_notified: int = 0
    notifications: int = 0

    def as_dict(self) -> dict[str, int]:
        """Plain-data snapshot (for probes and benchmark JSON)."""
        return {
            "subscriptions": self.subscriptions,
            "moves": self.moves,
            "unsubscriptions": self.unsubscriptions,
            "zones_notified": self.zones_notified,
            "notifications": self.notifications,
        }


class PushRegistry:
    """Cell-granular device subscriptions with zone fan-out.

    Args:
        cache_resolution_m: quantization-cell edge — must match the
            database the devices query, so a notification fires exactly
            when the device's cached cell response may have changed.
    """

    def __init__(
        self, cache_resolution_m: float = DEFAULT_CACHE_RESOLUTION_M
    ):
        if cache_resolution_m <= 0:
            raise SpectrumMapError(
                f"cache_resolution_m must be > 0, got {cache_resolution_m!r}"
            )
        self.cache_resolution_m = cache_resolution_m
        self._cell_of_device: dict[int, tuple[int, int]] = {}
        self._devices_in_cell: dict[tuple[int, int], set[int]] = {}
        self.stats = PushStats()

    def __len__(self) -> int:
        return len(self._cell_of_device)

    def subscribed_cell(self, device_id: int) -> tuple[int, int] | None:
        """The cell *device_id* is subscribed to (None when absent)."""
        return self._cell_of_device.get(device_id)

    def subscribe(self, device_id: int, qx: int, qy: int) -> None:
        """Subscribe *device_id* to cell (qx, qy).

        Move semantics: a device already subscribed elsewhere is moved
        (its old cell is released); re-subscribing to the current cell
        is a no-op, so callers can refresh every tick for free.
        """
        cell = (qx, qy)
        previous = self._cell_of_device.get(device_id)
        if previous == cell:
            return
        if previous is None:
            self.stats.subscriptions += 1
        else:
            self.stats.moves += 1
            self._release(device_id, previous)
        self._cell_of_device[device_id] = cell
        self._devices_in_cell.setdefault(cell, set()).add(device_id)

    def unsubscribe(self, device_id: int) -> None:
        """Drop *device_id* from the book (absent devices are a no-op)."""
        cell = self._cell_of_device.pop(device_id, None)
        if cell is None:
            return
        self._release(device_id, cell)
        self.stats.unsubscriptions += 1

    def _release(self, device_id: int, cell: tuple[int, int]) -> None:
        devices = self._devices_in_cell[cell]
        devices.discard(device_id)
        if not devices:
            del self._devices_in_cell[cell]

    def notify_zone(self, registration: MicRegistration) -> tuple[int, ...]:
        """Devices whose subscribed cell *registration*'s zone touches.

        Returns the notified device ids sorted ascending (deterministic
        fan-out).  The zone/cell predicate is the service's own
        invalidation geometry, so the notified set is exactly the
        devices whose cached response the registration can change.
        """
        by_cell = self._devices_in_cell
        cells = np.fromiter(
            chain.from_iterable(by_cell), dtype=np.int64, count=2 * len(by_cell)
        ).reshape(-1, 2)
        touched = circle_intersects_cells(
            registration.x_m,
            registration.y_m,
            registration.radius_m,
            cells[:, 0],
            cells[:, 1],
            self.cache_resolution_m,
        )
        notified: list[int] = []
        for devices, t in zip(by_cell.values(), touched.tolist()):
            if t:
                notified.extend(devices)
        notified.sort()
        if notified:
            self.stats.zones_notified += 1
        self.stats.notifications += len(notified)
        return tuple(notified)

    def publish_metrics(self, telemetry) -> None:
        """Publish the push counters (``push_*``) plus the live
        subscription count into a sim-clock registry."""
        if not telemetry.enabled:
            return
        telemetry.record_stats("push", self.stats.as_dict())
        telemetry.gauge("push_live_subscriptions").set(float(len(self)))
