"""Bounded table of in-flight access requests.

The table holds at most ``capacity`` live entries, keyed by request nonce,
and every entry dies ``ttl`` seconds after it was parked: each insertion
sweeps first, and nothing else sweeps. All entries share one
ttl and sit in birth order, so a sweep pops expired entries from the front
and stops at the first live one. If the clock steps back, an entry parked
afterwards waits behind a later-born one: eviction only waits, and the
capacity bound holds regardless. ``peak_size`` records the high-water mark
so load tests can assert the bound actually held.
"""

from __future__ import annotations

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
        self._peak = 0

    def try_insert(self, nonce: str) -> bool:
        """Sweep, then park the nonce; False when full or the nonce is live."""
        now = int(self._clock())
        born = self._born
        while born and now - next(iter(born.values())) >= self.ttl:
            born.popitem(last=False)
        if nonce in born or len(born) >= self.capacity:
            return False
        born[nonce] = now
        self._peak = max(self._peak, len(born))
        return True

    def contains(self, nonce: str) -> bool:
        return nonce in self._born

    def remove(self, nonce: str) -> None:
        self._born.pop(nonce, None)

    @property
    def peak_size(self) -> int:
        return self._peak
