"""What the benchmark measures: workloads, metrics and their bounds.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 bench/run.py --write-spec``), so the file and the metrics the
runner prints cannot drift apart. This module imports nothing from fedgate.
"""

from __future__ import annotations

import json
from pathlib import Path

COMMAND = ["python3", "bench/run.py"]
PATHS = ["bench"]
RUN_SECONDS = 10

WORKLOADS = (
    (
        "access",
        "grant path every member pays: resolve, claim check, Ed25519 sign and verify, "
        "ledger seal, under both schemes while claims are written and expire",
    ),
    (
        "flood",
        "refusal path: ghost identifiers fill the 256-entry pending table while member "
        "probes must still get in; nothing a ghost does reaches the ledger",
    ),
    (
        "train-wide",
        "FedAvg over all 1000 partitions, K=50, E=2, full batch: evaluation over the "
        "whole fleet dominates each round",
    ),
    (
        "train-deep",
        "FedAvg over a 100-partition filter, K=20, E=5, minibatch 10: local training "
        "dominates and evaluation is small",
    ),
)

# (name, unit, better, bound). Timings are paced (see pace.py) yet still
# move by up to a fifth between runs on a shared 2-core machine, so every
# timing gets the largest bound the benchmark contract allows. The p99s are
# printed beside the p50s but are not metrics here (see traffic.py).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("ok_ratio", "ratio", "higher", 0.01),
    ("access_p50_us", "us", "lower", 0.25),
    ("access_per_s", "1/s", "higher", 0.25),
    ("audit_s", "s", "lower", 0.25),
    ("flood_per_s", "1/s", "higher", 0.25),
    ("probe_p50_us", "us", "lower", 0.25),
    ("rounds_per_s", "1/s", "higher", 0.25),
    ("job_s", "s", "lower", 0.25),
    ("final_loss", "nats", "lower", 0.12),
)

# Spans the traced run records, one per layer boundary (see tracing.py).
SPANS = (
    "keys.sign",
    "keys.verify",
    "identity.resolve",
    "identity.registry.update",
    "ledger.evaluate",
    "ledger.record",
    "ledger.verify",
    "access.contract_lookup",
    "access.user_lookup",
    "access.verify_claim",
    "access.ratelimit",
    "access.pending.insert",
    "service.api",
    "service.metadata",
    "service.submit",
    "service.executor",
    "fl.federation",
    "fl.select",
    "fl.local_train",
    "fl.aggregate",
    "fl.eval",
)
DECISIONS = ("granted", "missing-claims", "unresolvable", "rejected-capacity", "rejected-rate", "other")

PER_LAYER = (
    tuple(
        metric
        for span in SPANS
        for metric in ((f"{span}.calls", "count", "lower"), (f"{span}.self_s", "s", "lower"))
    )
    + (
        ("keys.sig_ops_per_decision", "ops/decision", "lower"),
        ("identity.resolve.failed", "count", "lower"),
        ("ledger.height", "count", "lower"),
        ("access.pending.admit_ratio", "ratio", "lower"),
        ("access.pending.peak", "count", "lower"),
    )
    + tuple((f"access.decision.{d}", "count", "higher" if d == "granted" else "lower") for d in DECISIONS)
    + (
        ("trace.spans", "count", "lower"),
        ("trace.untraced_s", "s", "lower"),
        ("trace.traced_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
)

# Spans that must record calls on the workload chosen to exercise them.
EXERCISED = {
    "access": (
        "keys.sign",
        "keys.verify",
        "identity.resolve",
        "identity.registry.update",
        "ledger.evaluate",
        "ledger.record",
        "ledger.verify",
        "access.contract_lookup",
        "access.user_lookup",
        "access.verify_claim",
        "access.ratelimit",
        "access.pending.insert",
        "service.api",
        "service.metadata",
    ),
    "flood": (
        "keys.sign",
        "keys.verify",
        "identity.resolve",
        "ledger.evaluate",
        "ledger.record",
        "ledger.verify",
        "access.contract_lookup",
        "access.user_lookup",
        "access.ratelimit",
        "access.pending.insert",
        "service.api",
    ),
    "train-wide": (
        "service.api",
        "service.metadata",
        "service.submit",
        "service.executor",
        "fl.federation",
        "fl.select",
        "fl.local_train",
        "fl.aggregate",
        "fl.eval",
    ),
}
EXERCISED["train-deep"] = EXERCISED["train-wide"]

# The layer group each workload was chosen to load most, by self time.
CHOSEN_FOR = {
    "access": ("keys.sign", "keys.verify"),
    "flood": ("access.pending.insert",),
    "train-wide": ("fl.eval",),
    "train-deep": ("fl.local_train",),
}


def document() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound} for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def write(path: Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(document(), indent=2) + "\n")
    return path
