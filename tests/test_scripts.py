"""Smoke runs of the scripts under ``scripts/``: each must exit 0.

Each script runs from a copy outside the repository with only ``src`` on
the path, so a script that reaches into ``tests/`` fails here. The
benchmark's tracer must also still find every function and method it
wraps, so a rename in ``src`` that would break ``bench/`` fails here too,
and a short traced run of each training workload must pass its checks:
every exercised span records calls and the traced run leaves the same
artifacts as the untraced one.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_python(args, cwd, *paths):
    """``python args`` in ``cwd`` with only ``paths`` (under the repo) on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(str(ROOT / path) for path in paths)
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, capture_output=True, text=True, timeout=300
    )


def run_script(name, *args, cwd):
    script = shutil.copy(ROOT / "scripts" / name, cwd / name)
    return run_python([str(script), *args], cwd, "src")


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


def test_bench_tracer_hooks_resolve(tmp_path):
    code = "import desk, tracing; t = tracing.Tracer(); t.install(); t.uninstall()"
    result = run_python(["-c", code], tmp_path, "src", "bench")
    assert result.returncode == 0, result.stdout + result.stderr


@pytest.mark.parametrize("workload", ["train-wide", "train-deep"])
def test_bench_training_workload_traced(tmp_path, workload):
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    args = ["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    result = run_python(args, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
