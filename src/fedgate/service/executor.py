"""Runs one job at a time against the client fleet, surviving node faults.

A job is one pass of ``run_federation`` over one fleet, a ``NodeRegistry``
that holds the job's standbys and fault schedule. Before each round the
fleet applies that round's faults (see ``nodes``). A standby server takes
over with the last aggregated model; because every per-round seed is keyed
by the absolute round index, the run stays bit-identical to one without
the fault. A lost server fails the job.

A run also ends early when the global loss stops improving by more than
``STAGNATION_IMPROVEMENT`` for ``STAGNATION_WINDOW`` consecutive rounds,
and fails when training diverges.
"""

from __future__ import annotations

import math
from pathlib import Path

from ..canonical import canonical_json_bytes
from ..errors import FedGateError
from ..fl import CsvMetricsWriter, Fleet, RoundMetrics, run_federation
from .jobs import JobRecord, apply_filter
from .nodes import NodeRegistry

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


class JobExecutor:
    def __init__(self, fleet: Fleet, out_dir: Path):
        self._fleet = fleet
        self._out_dir = Path(out_dir)

    def run(
        self,
        record: JobRecord,
        *,
        node_registry: NodeRegistry,
    ) -> JobRecord:
        """Execute a queued job to a terminal state on ``node_registry``, streaming metrics.

        A job whose ``metrics.csv`` or ``model.json`` cannot be written ends
        ``failed``, the OS error its cause. The fleet's fault schedule is taken
        as checked: ``ScenarioConfig``, its only producer, refuses a fault past
        the last round.
        """
        config = record.spec.config
        record.transition("running")
        job_dir = self._out_dir / record.job_id  # the metrics writer creates it
        metrics_path = job_dir / "metrics.csv"
        record.metrics_address = str(metrics_path)

        guard = StagnationGuard()
        rows: list[RoundMetrics] = []
        try:
            filtered = apply_filter(self._fleet, record.spec.data_filter)
            all_ids = frozenset(filtered.ids)

            def eligibility(t: int) -> frozenset[str]:
                node_registry.advance(t)
                return node_registry.eligible_clients(t, all_ids)

            with CsvMetricsWriter(metrics_path) as writer:

                def observer(metrics: RoundMetrics) -> bool:
                    rows.append(metrics)
                    writer(metrics)
                    return guard.observe(metrics)

                model = run_federation(config, filtered, observer, eligibility=eligibility)

            state = "terminated_early" if guard.triggered else "completed"
            final = rows[-1]
            artifact = {
                "weights": model.tolist(),
                "config": config.to_dict(),
                "state": state,
                "roundsExecuted": len(rows),
                "finalLoss": final.global_loss,
                "finalAccuracy": final.train_accuracy,
                "failover": node_registry.actions,
            }
            model_path = job_dir / "model.json"
            model_path.write_bytes(canonical_json_bytes(artifact) + b"\n")
        except (FedGateError, OSError) as error:  # OSError: an artifact could not be written
            record.rounds_executed, record.cause = len(rows), str(error)
            record.transition("failed")
            return record

        record.rounds_executed = len(rows)
        if guard.triggered:
            record.cause = f"no loss improvement > {STAGNATION_IMPROVEMENT:g} over {STAGNATION_WINDOW} rounds"
        record.model_address = str(model_path)
        record.transition(state)
        return record
