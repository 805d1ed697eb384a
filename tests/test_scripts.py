"""Smoke runs of the scripts under ``scripts/``: each must exit 0."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
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
