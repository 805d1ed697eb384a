"""Sliding-window per-key rate limiting with bounded key tracking.

The key bound has one value in use, so it is the constant
``MAX_TRACKED_KEYS`` rather than a constructor option.
"""

from __future__ import annotations

import threading
from collections import OrderedDict, deque
from typing import Callable

MAX_TRACKED_KEYS = 4096


class SlidingWindowLimiter:
    """At most ``limit`` allowed calls per key inside a trailing window.

    Tracks at most ``MAX_TRACKED_KEYS`` keys; the least recently seen key
    is evicted beyond that, so a flood of one-shot identities cannot grow
    memory without bound.
    """

    def __init__(self, limit: int, window_seconds: int, clock: Callable[[], int]):
        if limit < 1 or window_seconds < 1:
            raise ValueError("limit and window must be positive")
        self.limit = limit
        self.window = window_seconds
        self._clock = clock
        self._hits: OrderedDict[str, deque[int]] = OrderedDict()
        self._lock = threading.Lock()

    def allow(self, key: str) -> bool:
        """Record an attempt; True iff the key stays within its budget."""
        now = int(self._clock())
        with self._lock:
            hits = self._hits.setdefault(key, deque())
            self._hits.move_to_end(key)
            cutoff = now - self.window
            while hits and hits[0] <= cutoff:
                hits.popleft()
            if len(hits) >= self.limit:
                return False
            hits.append(now)
            while len(self._hits) > MAX_TRACKED_KEYS:
                self._hits.popitem(last=False)
            return True

    @property
    def tracked_keys(self) -> int:
        return len(self._hits)
