"""Sliding-window per-key rate limiting with a key bound that fails closed.

The gateway asks only about a DID that resolves, so a made-up DID never
takes a slot. The key bound and the window each have one value in use, so
they are the constants ``MAX_TRACKED_KEYS`` and ``RATE_WINDOW_SECONDS``
rather than constructor options.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable

MAX_TRACKED_KEYS = 4096
RATE_WINDOW_SECONDS = 60


class SlidingWindowLimiter:
    """At most ``limit`` allowed calls per key inside a trailing ``RATE_WINDOW_SECONDS``.

    Tracks at most ``MAX_TRACKED_KEYS`` keys. A new key beyond that takes
    the least recently seen key's place only if that key's window is empty;
    else the new key is refused and left untracked. It may thus be refused
    when another key's window has emptied, but never admitted past a budget.
    """

    def __init__(self, limit: int, clock: Callable[[], int]):
        self.limit = limit
        self._clock = clock
        self._hits: OrderedDict[str, deque[int]] = OrderedDict()

    def allow(self, key: str) -> bool:
        """Record an attempt; True iff the key stays within its budget."""
        now = int(self._clock())
        cutoff = now - RATE_WINDOW_SECONDS
        hits = self._hits.get(key)
        if hits is None:  # a new key goes in at the end, so it needs no move
            if len(self._hits) >= MAX_TRACKED_KEYS:
                oldest, oldest_hits = next(iter(self._hits.items()))
                if oldest_hits[-1] > cutoff:
                    return False
                del self._hits[oldest]
            hits = self._hits[key] = deque()
        else:
            self._hits.move_to_end(key)
            while hits and hits[0] <= cutoff:
                hits.popleft()
            if len(hits) >= self.limit:
                return False
        hits.append(now)
        return True
