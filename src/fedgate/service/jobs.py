"""Job specs, the task queue, and weighted-shortest-job-first scheduling.

A job's priority is ``priority_weight / estimated_runtime`` (runtime as
estimated by the submitting user). On a single executor this ordering
minimizes total weighted completion time; ties fall back to submission
order. A record starts ``queued``, and only the executor moves it on::

    queued -> running -> completed | failed | terminated_early

At most ``MAX_QUEUED_JOBS`` jobs wait, ``MAX_QUEUED_PER_HOLDER`` of them
from one grant holder, and a submission past either bound queues nothing.
Of the picked jobs the newest ``MAX_FINISHED_JOBS`` are kept; an older one
answers as unknown, and its files stay on disk.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace
import numpy as np

from ..errors import ValidationError, check_integer, check_real, first_repeat, from_camel_keys
from ..fl import FederationConfig, Fleet

MAX_QUEUED_JOBS = 64
MAX_QUEUED_PER_HOLDER = 8
MAX_FINISHED_JOBS = 128


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
    twice = first_repeat(values)
    if twice is not None:
        raise ValidationError(f"{field} names {twice!r} twice")
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
            n = check_integer("max_samples_per_client", self.max_samples_per_client)
            object.__setattr__(self, "max_samples_per_client", n)

    @classmethod
    def from_dict(cls, data: dict) -> "DataFilter":
        return from_camel_keys(cls, data, "data filter")


def apply_filter(fleet: Fleet, data_filter: DataFilter) -> Fleet:
    """The fleet a job trains on, in the order given, by index arithmetic on its
    pool: a client filter selects offsets, a sample cap shortens sizes, and a
    feature filter gathers the named columns once."""
    if data_filter.client_ids is not None:
        wanted = set(data_filter.client_ids)
        missing = wanted.difference(fleet.ids)
        if missing:
            raise ValidationError(f"filter references unknown clients: {sorted(missing)}")
        fleet = fleet.select([i for i, cid in enumerate(fleet.ids) if cid in wanted])
    if data_filter.feature_names is not None:
        fleet = fleet.select_features(data_filter.feature_names)
    if data_filter.max_samples_per_client is not None:  # clamped first: numpy takes no int past int64
        cap = min(data_filter.max_samples_per_client, int(fleet.sizes.max()))
        fleet = replace(fleet, sizes=np.minimum(fleet.sizes, cap))
    return fleet


@dataclass(frozen=True)
class JobSpec:
    holder: str  # the DID whose grant submitted the job; only it may read the job
    config: FederationConfig
    estimated_runtime: float
    priority_weight: float
    data_filter: DataFilter

    def __post_init__(self) -> None:
        # NaN compares false both ways, so it would leave the WSJF order undefined.
        for name in ("estimated_runtime", "priority_weight"):
            value = check_real(name, getattr(self, name))
            if value <= 0:
                raise ValidationError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, value)

    @property
    def wsjf_ratio(self) -> float:
        return self.priority_weight / self.estimated_runtime


@dataclass
class JobRecord:
    job_id: str
    spec: JobSpec
    submitted_at: int
    state: str = "queued"
    metrics_address: str | None = None
    model_address: str | None = None
    cause: str | None = None
    rounds_executed: int = 0

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
        self._queued: dict[str, JobRecord] = {}  # submission order, so ``wsjf_order`` ties stay FIFO
        self._finished: dict[str, JobRecord] = {}  # pick order, oldest first
        self._counter = itertools.count(1)

    def submit(self, spec: JobSpec, now: int) -> JobRecord | None:
        """Queue a job; None, queuing nothing, when the queue or the holder's share of it is full."""
        held = sum(r.spec.holder == spec.holder for r in self._queued.values())
        if len(self._queued) >= MAX_QUEUED_JOBS or held >= MAX_QUEUED_PER_HOLDER:
            return None
        record = JobRecord(f"job-{next(self._counter):04d}", spec, submitted_at=int(now))
        self._queued[record.job_id] = record
        return record

    def get(self, job_id: str) -> JobRecord | None:
        return self._queued.get(job_id) or self._finished.get(job_id)

    def schedule_next(self) -> JobRecord | None:
        """Take the queued job with the best weight/runtime ratio (FIFO ties) off the queue.

        It joins the finished records at once: the executor runs each pick to
        a terminal state before it returns.
        """
        if not self._queued:
            return None
        waiting = list(self._queued.values())
        record = waiting[wsjf_order([r.spec for r in waiting])[0]]
        del self._queued[record.job_id]
        self._finished[record.job_id] = record
        if len(self._finished) > MAX_FINISHED_JOBS:
            del self._finished[next(iter(self._finished))]
        return record


def wsjf_order(jobs: list[JobSpec]) -> list[int]:
    """Indices of ``jobs`` in execution order under the scheduling rule."""
    return sorted(range(len(jobs)), key=lambda i: (-jobs[i].wsjf_ratio, i))
