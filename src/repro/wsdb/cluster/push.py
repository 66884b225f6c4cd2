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
response protocol itself: per-device cell columns, indexed by device
id.  A device subscribes to its current quantization cell (moving is
an idempotent re-subscribe, and a whole fleet subscribes in one array
call), and :meth:`notify_zone` fans a new zone out to every device
whose subscribed cell the zone touches — the same
:func:`~repro.wsdb.index.circle_intersects_cells` predicate the service
uses to invalidate cached responses, so a device is notified exactly
when its cached response may have changed.  Notification order is
ascending device id, keeping fan-out deterministic for the
byte-identical parallel/sequential contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

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
        # Per-device columns, indexed by device id: subscribed flag and
        # subscribed cell.
        self._on = np.zeros(0, dtype=bool)
        self._qx = np.zeros(0, dtype=np.int64)
        self._qy = np.zeros(0, dtype=np.int64)
        self.stats = PushStats()

    def __len__(self) -> int:
        return int(np.count_nonzero(self._on))

    def subscribed_cell(self, device_id: int) -> tuple[int, int] | None:
        """The cell *device_id* is subscribed to (None when absent)."""
        if not 0 <= device_id < len(self._on) or not self._on[device_id]:
            return None
        return int(self._qx[device_id]), int(self._qy[device_id])

    def subscribe(self, devices: Any, qx: Any, qy: Any) -> None:
        """Subscribe each of *devices* to cell ``(qx[i], qy[i])``.

        Takes distinct non-negative device ids and their cells as arrays
        (or one id and one cell as scalars).  Move semantics: a device
        already subscribed elsewhere is moved; re-subscribing to the
        current cell is a no-op, so callers can refresh a whole fleet
        every tick for free.
        """
        devices, qx, qy = (
            np.atleast_1d(np.asarray(a, dtype=np.int64))
            for a in (devices, qx, qy)
        )
        if not len(devices):
            return
        if devices.min() < 0:
            raise SpectrumMapError("push device ids must be >= 0")
        grow = int(devices.max()) + 1 - len(self._on)
        if grow > 0:
            self._on = np.concatenate((self._on, np.zeros(grow, dtype=bool)))
            self._qx = np.concatenate((self._qx, np.zeros(grow, np.int64)))
            self._qy = np.concatenate((self._qy, np.zeros(grow, np.int64)))
        was = self._on[devices]
        moved = was & ((self._qx[devices] != qx) | (self._qy[devices] != qy))
        self.stats.subscriptions += len(devices) - int(np.count_nonzero(was))
        self.stats.moves += int(np.count_nonzero(moved))
        self._on[devices] = True
        self._qx[devices] = qx
        self._qy[devices] = qy

    def unsubscribe(self, device_id: int) -> None:
        """Drop *device_id* from the book (absent devices are a no-op)."""
        if self.subscribed_cell(device_id) is None:
            return
        self._on[device_id] = False
        self.stats.unsubscriptions += 1

    def notify_zone(self, registration: MicRegistration) -> tuple[int, ...]:
        """Devices whose subscribed cell *registration*'s zone touches.

        Returns the notified device ids sorted ascending (deterministic
        fan-out).  The zone/cell predicate is the service's own
        invalidation geometry, so the notified set is exactly the
        devices whose cached response the registration can change.
        """
        devices = np.flatnonzero(self._on)
        touched = circle_intersects_cells(
            registration.x_m,
            registration.y_m,
            registration.radius_m,
            self._qx[devices],
            self._qy[devices],
            self.cache_resolution_m,
        )
        notified = devices[touched].tolist()
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
