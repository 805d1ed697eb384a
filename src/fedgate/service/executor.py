"""Runs one job at a time against the client fleet, surviving node faults.

A job is one pass of ``run_federation``. Every fault is an event applied
before the round it names, server faults first, then client faults. A
standby server takes over with the last aggregated model; because every
per-round seed is keyed by the absolute round index, the run stays
bit-identical to one without the fault. No standby server means the job
is lost. A standby client silently adopts the dead node's partition
(training math unchanged); otherwise the partition drops out of the
eligible set from the fault round on.

A run also ends early when the global loss stops improving by more than
``STAGNATION_IMPROVEMENT`` for ``STAGNATION_WINDOW`` consecutive rounds,
and fails when training diverges.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Sequence

from ..canonical import canonical_json_bytes
from ..errors import FedGateError, ValidationError
from ..fl import (
    CsvMetricsWriter,
    DatasetPartition,
    RoundMetrics,
    run_federation,
)
from .jobs import JobRecord, apply_filter
from .nodes import FaultEvent, NodeRegistry

STAGNATION_IMPROVEMENT = 1e-4
STAGNATION_WINDOW = 10


class StagnationGuard:
    """Trips after ``STAGNATION_WINDOW`` consecutive rounds without real improvement."""

    def __init__(self):
        self.best = math.inf
        self.stale_rounds = 0
        self.triggered = False

    def observe(self, metrics: RoundMetrics) -> bool:
        if self.best - metrics.global_loss > STAGNATION_IMPROVEMENT:
            self.best = metrics.global_loss
            self.stale_rounds = 0
        else:
            self.stale_rounds += 1
            if self.stale_rounds >= STAGNATION_WINDOW:
                self.triggered = True
        return self.triggered


class _ServerLost(FedGateError):
    """The server failed and no standby could take over."""


class JobExecutor:
    def __init__(
        self,
        partitions: Sequence[DatasetPartition],
        out_dir: Path,
        clock: Callable[[], int],
    ):
        self._partitions = list(partitions)
        self._out_dir = Path(out_dir)
        self._clock = clock

    def run(
        self,
        record: JobRecord,
        *,
        fault_schedule: Sequence[FaultEvent] = (),
        node_registry: NodeRegistry | None = None,
        standby_clients: int = 0,
        standby_servers: int = 0,
    ) -> JobRecord:
        """Execute a queued job to a terminal state, streaming metrics."""
        config = record.spec.config
        for event in fault_schedule:
            if event.round_index > config.total_rounds:
                raise ValidationError(
                    f"fault at round {event.round_index} beyond T={config.total_rounds}"
                )

        record.transition("running", int(self._clock()))
        job_dir = self._out_dir / record.job_id  # the metrics writer creates it
        metrics_path = job_dir / "metrics.csv"
        record.metrics_address = str(metrics_path)

        guard = StagnationGuard()
        rows: list[RoundMetrics] = []
        actions = []
        try:
            filtered = apply_filter(self._partitions, record.spec.data_filter)
            registry = node_registry or NodeRegistry.provision(
                [p.client_id for p in filtered],
                standby_clients=standby_clients,
                standby_servers=standby_servers,
            )
            all_ids = frozenset(p.client_id for p in filtered)

            def eligibility(t: int) -> frozenset[str]:
                # server faults first, then client faults, each in schedule order
                due = [e.node_id for e in fault_schedule if e.round_index == t]
                for node_id in sorted(due, key=lambda n: registry.node(n).role != "server"):
                    action = registry.fail(node_id, t)
                    actions.append(action)
                    if action.kind == "server-lost":
                        raise _ServerLost("server failed with no standby")
                return registry.eligible_clients(t, all_ids)

            with CsvMetricsWriter(metrics_path) as writer:

                def observer(metrics: RoundMetrics) -> None:
                    rows.append(metrics)
                    writer(metrics)

                model = run_federation(
                    config,
                    filtered,
                    observer,
                    eligibility=eligibility,
                    early_stop=guard.observe,
                )
        except FedGateError as error:
            record.rounds_executed, record.cause = len(rows), str(error)
            record.transition("failed", int(self._clock()))
            return record

        record.rounds_executed = len(rows)
        state = "terminated_early" if guard.triggered else "completed"
        if guard.triggered:
            record.cause = f"no loss improvement > {STAGNATION_IMPROVEMENT:g} over {STAGNATION_WINDOW} rounds"

        final = rows[-1]
        artifact = {
            "weights": model.tolist(),
            "config": config.to_dict(),
            "state": state,
            "roundsExecuted": len(rows),
            "finalLoss": final.global_loss,
            "finalAccuracy": final.train_accuracy,
            "failover": [
                {
                    "kind": a.kind,
                    "failedNode": a.failed_node,
                    "replacement": a.replacement,
                    "clientId": a.client_id,
                    "round": a.round_index,
                }
                for a in actions
            ],
        }
        model_path = job_dir / "model.json"
        model_path.write_bytes(canonical_json_bytes(artifact) + b"\n")
        record.model_address = str(model_path)
        record.transition(state, int(self._clock()))
        return record
