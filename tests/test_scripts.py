"""Smoke runs of the scripts under ``scripts/``: each must exit 0.

Each script runs from a copy outside the repository with only ``src`` on
the path, so a script that reaches into ``tests/`` fails here.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    script = shutil.copy(ROOT / "scripts" / name, cwd / name)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_flood_benchmark_script(tmp_path):
    result = run_script("flood_benchmark.py", "--requests", "2000", cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "pending peak          256" in result.stdout
    assert "ledger growth         2 blocks" in result.stdout


def test_run_demo_script(tmp_path):
    result = run_script("run_demo.py", "--out", str(tmp_path / "demo"), "--seed", "7", cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "scheme A and B trained identical models: True" in result.stdout
    assert (tmp_path / "demo/scheme-b/chain.jsonl").exists()
