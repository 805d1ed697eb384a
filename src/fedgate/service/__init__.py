"""Training-as-a-service: metadata, job queue, executor, nodes, HTTP-style API."""

from .jobs import (
    DataFilter,
    JobQueue,
    JobRecord,
    JobSpec,
    JobStateError,
    apply_filter,
    total_weighted_completion,
    wsjf_order,
)
from .metadata import ClientDataSummary, TrainingDataMetadata, summarize_partitions
from .nodes import FaultEvent, FailoverAction, NodeRegistry
from .executor import JobExecutor, StagnationGuard
from .api import ApiError, Response, ServiceApi
from .facade import FlaasService

__all__ = [
    "TrainingDataMetadata",
    "ClientDataSummary",
    "summarize_partitions",
    "JobSpec",
    "JobRecord",
    "JobQueue",
    "JobStateError",
    "DataFilter",
    "apply_filter",
    "wsjf_order",
    "total_weighted_completion",
    "NodeRegistry",
    "FaultEvent",
    "FailoverAction",
    "JobExecutor",
    "StagnationGuard",
    "FlaasService",
    "ServiceApi",
    "Response",
    "ApiError",
]
