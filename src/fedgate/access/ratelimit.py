"""Sliding-window per-key rate limiting with bounded key tracking.

The key bound and the window each have one value in use, so they are the
constants ``MAX_TRACKED_KEYS`` and ``RATE_WINDOW_SECONDS`` rather than
constructor options.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable

MAX_TRACKED_KEYS = 4096
RATE_WINDOW_SECONDS = 60


class SlidingWindowLimiter:
    """At most ``limit`` allowed calls per key inside a trailing ``RATE_WINDOW_SECONDS``.

    Tracks at most ``MAX_TRACKED_KEYS`` keys; the least recently seen key
    is evicted beyond that, so a flood of one-shot identities cannot grow
    memory without bound.
    """

    def __init__(self, limit: int, clock: Callable[[], int]):
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._clock = clock
        self._hits: OrderedDict[str, deque[int]] = OrderedDict()

    def allow(self, key: str) -> bool:
        """Record an attempt; True iff the key stays within its budget."""
        now = int(self._clock())
        hits = self._hits.get(key)
        if hits is None:  # a new key goes in at the end, so it needs no move
            hits = self._hits[key] = deque()
        else:
            self._hits.move_to_end(key)
        cutoff = now - RATE_WINDOW_SECONDS
        while hits and hits[0] <= cutoff:
            hits.popleft()
        if len(hits) >= self.limit:
            return False
        hits.append(now)
        while len(self._hits) > MAX_TRACKED_KEYS:
            self._hits.popitem(last=False)
        return True
