"""``scripts/unreached.py`` lists the statements of ``src/fedgate`` a test run leaves unrun.

Its full sweep traces the whole of tier-1, about twice tier-1's time, so it is
not part of tier-1. This runs it, in a subprocess, over one small test file
that steps a clock forward and never back.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "unreached.py"

PROBE = """
from fedgate.clock import SimulatedClock


def test_a_clock_steps_forward():
    assert SimulatedClock(start=5).advance(2) == 7
"""


def test_the_recorder_lists_a_statement_a_small_run_skips_and_not_one_it_runs(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [sys.executable, str(SCRIPT), "-q", "-p", "no:cacheprovider", str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert "1 passed" in run.stdout
    listed = [line.partition(" ")[2] for line in run.stdout.splitlines() if line.startswith("fedgate/clock.py:")]
    assert "SimulatedClock.advance: raise ValueError('clocks only move forward')" in listed
    assert "SimulatedClock.advance: self._now += seconds" not in listed
    # the list is not the allow-list, so the sweep fails
    assert run.returncode == 1
