"""Run the end-to-end scenario under both authentication schemes.

Usage:
    python scripts/run_demo.py --out demo-runs --seed 7

Runs the default story (three data owners, one attestor, one qualified and
one unqualified user) once per scheme, plus two variants where a node is
killed mid-training with a standby available: a client, then the server.
Prints a comparison of the decisions, job outcomes, and artifact checksums
so determinism is visible.
"""

from __future__ import annotations

import argparse
import hashlib
import json
from pathlib import Path

from fedgate.scenario import ScenarioConfig, run_demo
from fedgate.service import FaultEvent


def digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def weights_digest(path: Path) -> str:
    weights = json.loads(path.read_text())["weights"]
    return hashlib.sha256(repr(weights).encode()).hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="demo-runs")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    root = Path(args.out)
    variants = {
        "scheme-a": ScenarioConfig(seed=args.seed, out_dir=str(root / "scheme-a")),
        "scheme-b": ScenarioConfig(
            seed=args.seed, scheme="user_lookup", out_dir=str(root / "scheme-b")
        ),
        "client-failover": ScenarioConfig(
            seed=args.seed,
            fault_schedule=(FaultEvent(3, "node-001"),),
            standby_clients=1,
            out_dir=str(root / "client-failover"),
        ),
        "server-failover": ScenarioConfig(
            seed=args.seed,
            fault_schedule=(FaultEvent(3, "server-0"),),
            standby_servers=1,
            out_dir=str(root / "server-failover"),
        ),
    }

    worst = 0
    for name, config in variants.items():
        summary = run_demo(config)
        out_dir = Path(config.out_dir)
        worst = max(worst, summary["exitCode"])
        decisions = ", ".join(
            f"{d['did'].rsplit(':', 1)[1]}={d['decision']}" for d in summary["decisions"]
        )
        print(f"[{name}] exit={summary['exitCode']} {decisions}")
        job = summary.get("job")
        if job is not None:
            print(
                f"    job {job['jobId']}: {job['state']} after "
                f"{job['roundsExecuted']} rounds"
            )
            if job["model"] is not None:
                print(f"    weights sha256/16 {weights_digest(out_dir / job['model'])}")
        print(f"    chain sha256/16 {digest(out_dir / 'chain.jsonl')}")

    model_of = {
        name: Path(cfg.out_dir) / "artifacts/job-0001/model.json"
        for name, cfg in variants.items()
    }
    print(
        "\nscheme A and B trained identical models: "
        f"{weights_digest(model_of['scheme-a']) == weights_digest(model_of['scheme-b'])}"
    )
    for kind in ("client", "server"):
        same = weights_digest(model_of["scheme-a"]) == weights_digest(model_of[f"{kind}-failover"])
        print(f"{kind} failover reproduced the uninterrupted weights: {same}")
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
