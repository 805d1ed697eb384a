"""Job specs, the task queue, and weighted-shortest-job-first scheduling.

A job's priority is ``priority_weight / estimated_runtime`` (runtime as
estimated by the submitting user). On a single executor this ordering
minimizes total weighted completion time; ties fall back to submission
order. The job record is a strict state machine::

    queued -> running -> completed | failed | terminated_early
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

from ..errors import FedGateError, ValidationError, from_camel_keys
from ..fl import DatasetPartition, FederationConfig
from ..fl.config import _integer, _real


def _names(field: str, values) -> tuple[str, ...] | None:
    """``values`` as a tuple of strings, or None when the filter is absent.

    An empty list is refused rather than read as "no filter": a job that
    asked for no clients must not silently run over all of them.
    """
    if values is None:
        return None
    if not isinstance(values, (list, tuple)) or not all(isinstance(v, str) for v in values):
        raise ValidationError(f"{field} must be a list of strings")
    if not values:
        raise ValidationError(f"{field} must not be empty; omit it to keep them all")
    return tuple(values)


@dataclass(frozen=True)
class DataFilter:
    """Restricts which partitions, features, and samples a job trains on."""

    client_ids: tuple[str, ...] | None = None
    feature_names: tuple[str, ...] | None = None
    max_samples_per_client: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "client_ids", _names("clientIds", self.client_ids))
        object.__setattr__(self, "feature_names", _names("featureNames", self.feature_names))
        if self.max_samples_per_client is not None:
            n = _integer("max_samples_per_client", self.max_samples_per_client)
            object.__setattr__(self, "max_samples_per_client", n)

    @classmethod
    def from_dict(cls, data: dict) -> "DataFilter":
        return from_camel_keys(cls, data, "data filter")


def apply_filter(
    partitions: list[DatasetPartition], data_filter: DataFilter
) -> list[DatasetPartition]:
    """Materialize the filtered view a job will train on."""
    chosen = partitions
    if data_filter.client_ids is not None:
        wanted = set(data_filter.client_ids)
        known = {p.client_id for p in partitions}
        missing = wanted - known
        if missing:
            raise ValidationError(f"filter references unknown clients: {sorted(missing)}")
        chosen = [p for p in chosen if p.client_id in wanted]
    if data_filter.feature_names is not None:
        chosen = [p.select_features(data_filter.feature_names) for p in chosen]
    if data_filter.max_samples_per_client is not None:
        n = data_filter.max_samples_per_client
        chosen = [replace(p, features=p.features[:n], labels=p.labels[:n]) for p in chosen]
    return sorted(chosen, key=lambda p: p.client_id)


@dataclass(frozen=True)
class JobSpec:
    holder: str  # the DID whose grant submitted the job; only it may read the job
    config: FederationConfig
    estimated_runtime: float
    priority_weight: float
    data_filter: DataFilter = DataFilter()

    def __post_init__(self) -> None:
        # NaN compares false both ways, so it would leave the WSJF order undefined.
        for name in ("estimated_runtime", "priority_weight"):
            value = _real(name, getattr(self, name))
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)

    @property
    def wsjf_ratio(self) -> float:
        return self.priority_weight / self.estimated_runtime


_TRANSITIONS = {
    "queued": {"running"},
    "running": {"completed", "failed", "terminated_early"},
    "completed": set(),
    "failed": set(),
    "terminated_early": set(),
}

@dataclass
class JobRecord:
    job_id: str
    spec: JobSpec
    state: str = "queued"
    submitted_at: int = 0
    metrics_address: str | None = None
    model_address: str | None = None
    cause: str | None = None
    rounds_executed: int = 0
    transitions: list[tuple[int, str, str]] = field(default_factory=list)

    def transition(self, new_state: str, now: int) -> None:
        if new_state not in _TRANSITIONS:
            raise FedGateError(f"unknown state {new_state!r}")
        if new_state not in _TRANSITIONS[self.state]:
            raise FedGateError(f"illegal transition {self.state} -> {new_state}")
        self.transitions.append((int(now), self.state, new_state))
        self.state = new_state

    def to_dict(self) -> dict:
        return {
            "jobId": self.job_id,
            "state": self.state,
            "submittedAt": self.submitted_at,
            "metricsAddress": self.metrics_address,
            "modelAddress": self.model_address,
            "cause": self.cause,
            "roundsExecuted": self.rounds_executed,
            "estimatedRuntime": self.spec.estimated_runtime,
            "priorityWeight": self.spec.priority_weight,
        }


class JobQueue:
    def __init__(self):
        self._jobs: dict[str, JobRecord] = {}
        self._counter = itertools.count(1)

    def submit(self, spec: JobSpec, now: int) -> JobRecord:
        record = JobRecord(f"job-{next(self._counter):04d}", spec, submitted_at=int(now))
        self._jobs[record.job_id] = record
        return record

    def get(self, job_id: str) -> JobRecord | None:
        return self._jobs.get(job_id)

    def schedule_next(self) -> JobRecord | None:
        """Pick the queued job with the best weight/runtime ratio (FIFO ties)."""
        # ``_jobs`` keeps submission order, so ``wsjf_order`` ties stay FIFO
        waiting = [r for r in self._jobs.values() if r.state == "queued"]
        if not waiting:
            return None
        return waiting[wsjf_order([r.spec for r in waiting])[0]]


def wsjf_order(jobs: list[JobSpec]) -> list[int]:
    """Indices of ``jobs`` in execution order under the scheduling rule."""
    return sorted(range(len(jobs)), key=lambda i: (-jobs[i].wsjf_ratio, i))


def total_weighted_completion(jobs: list[JobSpec], order: list[int]) -> float:
    """Σ weight_j · completion_j when jobs run back-to-back in ``order``."""
    clock = 0.0
    total = 0.0
    for index in order:
        clock += jobs[index].estimated_runtime
        total += jobs[index].priority_weight * clock
    return total
