"""The injectable time source.

Modules that stamp timestamps take a zero-argument callable returning
UNIX seconds, and take it as a required argument: no module falls back to
wall time. The desk, the demo, the command line and the tests all pass a
:class:`SimulatedClock` they can step.
"""

from __future__ import annotations

from .errors import ValidationError


def _whole_seconds(value: int) -> int:
    """``value`` as given when it is an int; a bool, a float or other value is refused."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"clock times are whole seconds, got {value!r}")
    return value


class SimulatedClock:
    """Manually advanced clock; usable directly as a clock callable."""

    def __init__(self, start: int):
        self._now = _whole_seconds(start)

    def advance(self, seconds: int) -> int:
        if _whole_seconds(seconds) < 0:
            raise ValueError("clocks only move forward")
        self._now += seconds
        return self._now

    def __call__(self) -> int:
        return self._now
