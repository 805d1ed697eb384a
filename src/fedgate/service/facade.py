"""Grant-gated service operations: metadata, preview, job lifecycle.

``authorize`` redeems a grant token against the gateway's store, and
every data and job operation takes the grant it returns: no token, no
data. Job submission runs ``check_fleet``, the check that opens
the run, on the partitions the job's filter leaves visible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable

from ..access import AccessGateway
from ..errors import FedGateError
from ..fl import FederationConfig, Fleet, check_fleet
from ..ledger import GrantToken
from .executor import JobExecutor
from .jobs import DataFilter, JobQueue, JobRecord, JobSpec, apply_filter
from .metadata import copy_preview, copy_summary, summarize_partitions
from .nodes import NodeRegistry


class UnauthorizedTokenError(FedGateError):
    """The presented grant token is unknown or expired."""


class UnknownJobError(FedGateError):
    """No job with the requested id."""


class FlaasService:
    def __init__(
        self,
        gateway: AccessGateway,
        fleet: Fleet,
        out_dir: Path,
        clock: Callable[[], int],
        service_name: str,
    ):
        self._gateway = gateway
        self._fleet = fleet
        self._clock = clock
        self.service_name = service_name
        self.queue = JobQueue()
        self.executor = JobExecutor(self._fleet, Path(out_dir))
        self._summary: dict | None = None

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

    def _cached_summary(self) -> dict:
        """The fleet summary, built on the first call: partitions are read-only."""
        if self._summary is None:
            self._summary = summarize_partitions(self._fleet, self.service_name)
        return self._summary

    def metadata(self, grant: GrantToken) -> dict:
        """The ``/data/metadata`` body, a fresh copy of the summary for each caller."""
        return copy_summary(self._cached_summary())

    def preview(self, grant: GrantToken) -> list[dict]:
        """The summary's preview rows, a fresh copy for each caller."""
        return copy_preview(self._cached_summary()["preview"])

    # --------------------------------------------------------------- jobs

    def submit_job(
        self,
        grant: GrantToken,
        config: FederationConfig,
        *,
        estimated_runtime: float,
        priority_weight: float,
        data_filter: DataFilter,
    ) -> JobRecord | None:
        """The queued job, or None when the queue or the holder's share of it is full."""
        check_fleet(config, apply_filter(self._fleet, data_filter))
        spec = JobSpec(
            holder=grant.holder,
            config=config,
            estimated_runtime=estimated_runtime,
            priority_weight=priority_weight,
            data_filter=data_filter,
        )
        return self.queue.submit(spec, int(self._clock()))

    def run_next(self, *, node_registry: NodeRegistry) -> JobRecord | None:
        """Run the scheduler's next pick to completion on the given fleet; None when idle."""
        record = self.queue.schedule_next()
        if record is None:
            return None
        return self.executor.run(record, node_registry=node_registry)

    def job(self, grant: GrantToken, job_id: str) -> JobRecord:
        """The job, if this grant's holder submitted it.

        Another holder's job answers as unknown, so its id leaks nothing.
        """
        record = self.queue.get(job_id)
        if record is None or record.spec.holder != grant.holder:
            raise UnknownJobError(f"no job {job_id}")
        return record

    def job_artifact(self, grant: GrantToken, job_id: str, kind: str) -> str | dict:
        """The job's ``metrics`` CSV text or ``model`` JSON; one not written yet,
        or gone or unreadable on disk, answers as unknown, as another holder's job does."""
        record = self.job(grant, job_id)
        address = record.metrics_address if kind == "metrics" else record.model_address
        if address is None:
            raise UnknownJobError(f"job {job_id} has no {kind} yet")
        try:
            text = Path(address).read_text(encoding="utf-8")
            return text if kind == "metrics" else json.loads(text)
        except (OSError, ValueError):
            raise UnknownJobError(f"job {job_id} has no readable {kind}") from None
