"""Bounded table of in-flight access requests.

The table holds at most ``capacity`` live entries, keyed by request nonce,
and every entry dies ``ttl`` seconds after it was parked: an insertion
sweeps first when the clock has moved since the last sweep (at the same
time no entry can have come of age), and nothing else sweeps. All entries
share one ttl and sit in birth order, so a sweep pops expired entries from
the front and stops at the first live one. If the clock steps back, an entry
parked afterwards waits behind a later-born one: eviction only waits, and the
capacity bound holds regardless. ``peak_size`` records the high-water mark
so load tests can assert the bound actually held.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable


class PendingTable:
    def __init__(self, capacity: int, ttl_seconds: int, clock: Callable[[], int]):
        self.capacity = capacity
        self.ttl = ttl_seconds
        self._clock = clock
        self._born: OrderedDict[str, int] = OrderedDict()
        self.contains = self._born.__contains__  # whether a nonce is parked
        self._swept_at: int | None = None
        self._peak = 0

    def try_insert(self, nonce: str) -> bool:
        """Sweep, then park the nonce; False when full or the nonce is live."""
        now = int(self._clock())
        born = self._born
        if now != self._swept_at:
            self._swept_at = now
            while born and now - next(iter(born.values())) >= self.ttl:
                born.popitem(last=False)
        if nonce in born or len(born) >= self.capacity:
            return False
        born[nonce] = now
        if len(born) > self._peak:
            self._peak = len(born)
        return True

    def remove(self, nonce: str) -> None:
        self._born.pop(nonce, None)

    @property
    def peak_size(self) -> int:
        return self._peak
