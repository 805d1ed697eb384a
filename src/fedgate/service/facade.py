"""Grant-gated service operations: metadata, preview, job lifecycle.

Every operation redeems a grant token against the gateway's store; no
token, no data. Job submission re-checks the federation config against
the partitions the job's filter actually leaves visible.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable, Sequence

from ..access import AccessGateway
from ..errors import FedGateError, ValidationError
from ..fl import DatasetPartition, FederationConfig, check_shared_feature_space
from ..ledger import GrantToken
from .executor import JobExecutor
from .jobs import DataFilter, JobQueue, JobRecord, JobSpec, apply_filter
from .metadata import TrainingDataMetadata, summarize_partitions
from .nodes import NodeRegistry


class UnauthorizedTokenError(FedGateError):
    """The presented grant token is unknown or expired."""


class UnknownJobError(FedGateError):
    """No job with the requested id."""


class RejectedConfigError(ValidationError):
    """The job's federation config cannot run on the filtered partitions."""


class FlaasService:
    def __init__(
        self,
        gateway: AccessGateway,
        partitions: Sequence[DatasetPartition],
        out_dir: Path,
        clock: Callable[[], int],
        service_name: str = "fl-study",
    ):
        self._gateway = gateway
        self._partitions = list(partitions)
        self._clock = clock
        self.service_name = service_name
        self.queue = JobQueue()
        self.executor = JobExecutor(self._partitions, Path(out_dir), clock)
        self._summary: TrainingDataMetadata | None = None

    # --------------------------------------------------------------- auth

    def authorize(self, token: str | None) -> GrantToken:
        if not token:
            raise UnauthorizedTokenError("missing grant token")
        record = self._gateway.grants.validate(token, int(self._clock()))
        # A grant opens only the service its contract was deployed for.
        if record is None or record.service != self.service_name:
            raise UnauthorizedTokenError(
                f"unknown or expired grant token for {self.service_name}"
            )
        return record

    # --------------------------------------------------------------- data

    def metadata(self, token: str) -> TrainingDataMetadata:
        """The fleet summary, built on the first call: partitions are read-only."""
        self.authorize(token)
        if self._summary is None:
            self._summary = summarize_partitions(self._partitions, self.service_name)
        return self._summary

    # --------------------------------------------------------------- jobs

    def submit_job(
        self,
        token: str,
        config: FederationConfig,
        *,
        estimated_runtime: float,
        priority_weight: float,
        data_filter: DataFilter | None = None,
    ) -> JobRecord:
        grant = self.authorize(token)
        data_filter = data_filter or DataFilter()
        filtered = apply_filter(self._partitions, data_filter)
        if len(filtered) != config.total_clients:
            raise RejectedConfigError(
                f"config expects {config.total_clients} clients but the filter "
                f"leaves {len(filtered)}"
            )
        dim = check_shared_feature_space(filtered)
        if dim != config.loss.feature_dim:
            raise RejectedConfigError(
                f"filtered feature dimension {dim} does not match loss spec "
                f"{config.loss.feature_dim}"
            )
        spec = JobSpec(
            holder=grant.holder,
            config=config,
            estimated_runtime=estimated_runtime,
            priority_weight=priority_weight,
            data_filter=data_filter,
        )
        return self.queue.submit(spec, int(self._clock()))

    def run_next(self, *, node_registry: NodeRegistry | None = None) -> JobRecord | None:
        """Run the scheduler's next pick to completion on the given fleet
        (a fault-free one by default); None when idle."""
        record = self.queue.schedule_next()
        if record is None:
            return None
        return self.executor.run(record, node_registry=node_registry)

    def job(self, token: str, job_id: str) -> JobRecord:
        """The job, if this grant's holder submitted it.

        Another holder's job answers as unknown, so its id leaks nothing.
        """
        grant = self.authorize(token)
        record = self.queue.get(job_id)
        if record is None or record.spec.holder != grant.holder:
            raise UnknownJobError(f"no job {job_id}")
        return record

    def job_metrics_csv(self, token: str, job_id: str) -> str:
        record = self.job(token, job_id)
        if record.metrics_address is None:
            raise UnknownJobError(f"job {job_id} has no metrics yet")
        return Path(record.metrics_address).read_text()

    def job_model(self, token: str, job_id: str) -> dict:
        import json

        record = self.job(token, job_id)
        if record.model_address is None:
            raise UnknownJobError(f"job {job_id} has no model artifact")
        return json.loads(Path(record.model_address).read_text())
