"""Machine speed over time, so timings from a shared core can be compared.

On a machine whose cores are shared with other tenants, the same code runs
up to twice as slow for seconds at a time, and a core's slowdown is not
seen from the other core. So the benchmark measures the speed of its own
core, in its own thread: between program calls, at most every
``INTERVAL_S``, it runs a fixed calibration kernel and records how much
slower than usual it ran. The kernel has four parts, each timed on its own
(JSON encode and decode with SHA-256, an Ed25519 sign and verify, small
numpy products, and building and sorting small Python objects), and its
slowdown is the geometric mean of each part's cost over that part's
``REFERENCE_S``, its cost on an unshared core. Together the parts track the
program's own calls better than any one of them. The kernel calls no
fedgate code, so no change to the program can move it.

A program call's *paced* time is its measured time, less any kernel runs
inside it, divided by the mean slowdown from the kernel sample just before
the call to the one just after it. Paced times are therefore in seconds of
an unshared core of this machine. Short calls use the two samples next to
them, unsmoothed, because the core's speed changes within tens of
milliseconds. Long calls are paced from samples inside them where the
traffic can tick the pace there (training rounds, see
``traffic.PacedNodeRegistry``), else from bursts around them: a burst is
several kernel runs recorded as one sample, their median slowdown.
"""

from __future__ import annotations

import hashlib
import json
import math
from array import array
from time import perf_counter

import numpy as np
from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PrivateKey

# Cost of each kernel part on an unshared core of a 2-core 2.0 GHz Xeon VM
# (the fast end of its cost distribution); only fixes the unit of paced times.
REFERENCE_S = {"json": 7.5e-5, "crypto": 1.9e-4, "numpy": 2.0e-5, "objects": 6.5e-5}
INTERVAL_S = 0.015
BURST = 7  # kernel runs in the sample taken on either side of a long call


class Pace:
    def __init__(self):
        self.times: list[float] = []
        self.costs: list[float] = []
        self.slowdowns: list[float] = []
        self._due = 0.0
        self._key = Ed25519PrivateKey.from_private_bytes(bytes(range(32)))
        self._public = self._key.public_key()
        rng = np.random.default_rng(0)
        self._matrix = rng.normal(size=(200, 21))
        self._vector = rng.normal(size=21)
        self._parts = (
            ("json", self._json),
            ("crypto", self._crypto),
            ("numpy", self._numpy),
            ("objects", self._objects),
        )

    @staticmethod
    def _json() -> None:
        text = json.dumps({f"k{i}": [i, str(i), {"x": i * 2}] for i in range(30)}, sort_keys=True)
        json.loads(text)
        hashlib.sha256(text.encode()).hexdigest()

    def _crypto(self) -> None:
        signature = self._key.sign(b"fedgate-bench calibration")
        self._public.verify(signature, b"fedgate-bench calibration")

    def _numpy(self) -> None:
        for _ in range(5):
            (self._matrix @ self._vector).sum()

    @staticmethod
    def _objects() -> None:
        rows = [(str(i), i, (i, i + 1)) for i in range(200)]
        rows.sort(key=lambda row: row[0])
        {row[0]: row for row in rows}

    def calibrate(self, runs: int = 1) -> None:
        """Run the kernel ``runs`` times now; record one sample, their median."""
        start = perf_counter()
        slowdowns = []
        for _ in range(runs):
            log_slowdown = 0.0
            for name, part in self._parts:
                began = perf_counter()
                part()
                log_slowdown += math.log((perf_counter() - began) / REFERENCE_S[name])
            slowdowns.append(math.exp(log_slowdown / len(self._parts)))
        self.times.append(start)
        self.costs.append(perf_counter() - start)
        self.slowdowns.append(float(np.median(slowdowns)))
        self._due = perf_counter() + INTERVAL_S

    def tick(self) -> None:
        """Run the kernel if ``INTERVAL_S`` has passed since it last ran."""
        if perf_counter() >= self._due:
            self.calibrate()

    def slowdown(self, starts, ends) -> np.ndarray:
        """Mean slowdown from the sample just before each call to the one
        just after it."""
        before, after = self._around(starts, ends)
        total = np.concatenate(([0.0], np.cumsum(self.slowdowns)))
        return (total[after + 1] - total[before]) / (after - before + 1)

    def paced(self, starts, durations) -> np.ndarray:
        """Each call's duration, less kernel runs inside it, over its slowdown."""
        starts, durations = np.asarray(starts), np.asarray(durations)
        ends = starts + durations
        before, after = self._around(starts, ends)
        total = np.concatenate(([0.0], np.cumsum(self.costs)))
        inside = np.where(after > before + 1, total[after] - total[before + 1], 0.0)
        return (durations - inside) / self.slowdown(starts, ends)

    def paced_wall(self, start: float, end: float) -> float:
        """Paced length of a long stretch, from the kernel runs inside it."""
        times, slowdowns = np.asarray(self.times), np.asarray(self.slowdowns)
        return (end - start) / float(np.median(slowdowns[(times >= start) & (times <= end)]))

    def _around(self, starts, ends) -> tuple[np.ndarray, np.ndarray]:
        times = np.asarray(self.times)
        last = len(times) - 1
        before = np.clip(np.searchsorted(times, starts, side="right") - 1, 0, last)
        after = np.clip(np.searchsorted(times, ends, side="left"), 0, last)
        return before, np.maximum(after, before)


class Samples:
    """Measured program calls: start time and duration of each."""

    def __init__(self):
        self.starts = array("d")
        self.durations = array("d")

    def add(self, start: float, duration: float) -> None:
        self.starts.append(start)
        self.durations.append(duration)

    def __len__(self) -> int:
        return len(self.durations)

    def raw(self) -> np.ndarray:
        return np.frombuffer(self.durations)

    def paced(self, pace: Pace) -> np.ndarray:
        return pace.paced(self.starts, self.durations)
