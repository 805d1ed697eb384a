"""Smoke runs of the scripts under ``scripts/``: each must exit 0.

Each script runs from a copy outside the repository with only ``src`` on
the path, so a script that reaches into ``tests/`` fails here. The
benchmark's tracer must also still find every function and method it
wraps, so a rename in ``src`` that would break ``bench/`` fails here too,
and a short traced run of each workload must pass its checks: every
exercised span records calls, the traced run leaves the same artifacts as
the untraced one, and the flood agrees with the benchmark's pending-table
oracle. The access run must also stay under 1.0 Ed25519 operations per
decision, which only holds while repeat claim checks hit the signature cache.
"""

import json
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


def test_run_demo_script(tmp_path):
    result = run_script("run_demo.py", "--out", str(tmp_path / "demo"), "--seed", "7", cwd=tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    assert "scheme A and B trained identical models: True" in result.stdout
    assert "server failover reproduced the uninterrupted weights: True" in result.stdout
    assert (tmp_path / "demo/scheme-b/chain.jsonl").exists()


def test_bench_tracer_hooks_resolve(tmp_path):
    code = "import desk, tracing; t = tracing.Tracer(); t.install(); t.uninstall()"
    result = run_python(["-c", code], tmp_path, "src", "bench")
    assert result.returncode == 0, result.stdout + result.stderr


def run_bench_traced(workload, tmp_path):
    """One short traced bench run from a copy of ``bench`` and ``src``."""
    for name in ("bench", "src"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__"))
    args = ["bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1", "--trace", "1"]
    return run_python(args, tmp_path)


@pytest.mark.parametrize("workload", ["train-wide", "train-deep"])
def test_bench_training_workload_traced(tmp_path, workload):
    result = run_bench_traced(workload, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    # A round is one stacked local_train call, one aggregate, one selection and
    # two evaluations (loss and accuracy), however many clients it trains.
    [settings] = [line for line in result.stdout.splitlines() if line.startswith("settings ")]
    settings = json.loads(settings.removeprefix("settings "))
    rounds = settings["work"] * settings[workload.replace("-", "_")]["totalRounds"]
    metrics = json.loads(result.stdout.splitlines()[-1])["metrics"]
    calls = {name: metrics[f"fl.{name}.calls"]["value"] for name in ("local_train", "aggregate", "select", "eval")}
    assert calls == {"local_train": rounds, "aggregate": rounds, "select": rounds, "eval": 2 * rounds}


@pytest.mark.parametrize("workload", ["access", "flood"])
def test_bench_access_workloads_traced(tmp_path, workload):
    result = run_bench_traced(workload, tmp_path)
    assert result.returncode == 0, result.stdout + result.stderr
    metrics = json.loads(result.stdout.splitlines()[-1])["metrics"]
    if workload == "access":
        assert metrics["keys.sig_ops_per_decision"]["value"] < 1.0  # 0.70 cached, 1.44 uncached
    else:
        # Only a DID that resolves reaches a limiter, so no ghost spends a
        # call there: 1,102 calls against 1,102 decisions on this run.
        decided = sum(
            metrics[f"access.decision.{name}"]["value"] for name in ("granted", "rejected-rate")
        )
        assert metrics["access.ratelimit.calls"]["value"] <= decided
