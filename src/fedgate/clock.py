"""The injectable time source.

Modules that stamp timestamps take a zero-argument callable returning
UNIX seconds, and take it as a required argument: no module falls back to
wall time. The desk, the demo, the command line and the tests all pass a
:class:`SimulatedClock` they can step.
"""

from __future__ import annotations


class SimulatedClock:
    """Manually advanced clock; usable directly as a clock callable."""

    def __init__(self, start: int):
        self._now = int(start)

    def advance(self, seconds: int) -> int:
        if seconds < 0:
            raise ValueError("clocks only move forward")
        self._now += int(seconds)
        return self._now

    def __call__(self) -> int:
        return self._now
