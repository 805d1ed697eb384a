"""Bounded table of in-flight access requests.

The table holds at most ``capacity`` live entries, keyed by request nonce,
and every entry dies ``ttl`` seconds after it was parked whether or not
anyone sweeps explicitly — insertion sweeps first. All entries share one
ttl and sit in birth order, so a sweep pops expired entries from the front
and stops at the first live one. If the clock steps back, an entry parked
afterwards waits behind a later-born one: eviction only waits, and the
capacity bound holds regardless. ``peak_size`` records the high-water mark
so load tests can assert the bound actually held.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable


class PendingTable:
    def __init__(self, capacity: int, ttl_seconds: int, clock: Callable[[], int]):
        if capacity < 1 or ttl_seconds < 1:
            raise ValueError("capacity and ttl must be positive")
        self.capacity = capacity
        self.ttl = ttl_seconds
        self._clock = clock
        self._born: OrderedDict[str, int] = OrderedDict()
        self._lock = threading.Lock()
        self._peak = 0

    def try_insert(self, nonce: str) -> bool:
        """Atomic check-and-insert; False when full or the nonce is live."""
        now = int(self._clock())
        with self._lock:
            self._sweep_locked(now)
            if nonce in self._born or len(self._born) >= self.capacity:
                return False
            self._born[nonce] = now
            self._peak = max(self._peak, len(self._born))
            return True

    def contains(self, nonce: str) -> bool:
        with self._lock:
            return nonce in self._born

    def remove(self, nonce: str) -> None:
        with self._lock:
            self._born.pop(nonce, None)

    def sweep(self, now: int | None = None) -> int:
        """Drop entries older than ttl; returns how many were evicted."""
        now = int(self._clock()) if now is None else int(now)
        with self._lock:
            return self._sweep_locked(now)

    def _sweep_locked(self, now: int) -> int:
        born, evicted = self._born, 0
        while born and now - next(iter(born.values())) >= self.ttl:
            born.popitem(last=False)
            evicted += 1
        return evicted

    @property
    def size(self) -> int:
        return len(self._born)

    @property
    def peak_size(self) -> int:
        return self._peak
