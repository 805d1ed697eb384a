"""Federated learning core: losses, local training, selection, aggregation."""

from .config import FederationConfig, LossSpec
from .data import (
    DatasetPartition,
    check_shared_feature_space,
    load_partition,
    load_partitions,
    save_partition,
)
from .datagen import SyntheticSpec, generate_partitions, read_manifest, write_dataset
from .federation import (
    AggregationWeights,
    RoundPlan,
    aggregate,
    client_round_seed,
    compute_weights,
    initial_model,
    run_federation,
    select_clients,
)
from .metrics import CsvMetricsWriter, RoundMetrics, read_metrics_csv
from .model import ModelParameters
from .training import (
    DIVERGENCE_LIMIT,
    TrainingDivergedError,
    global_loss,
    local_train,
    training_accuracy,
)

__all__ = [
    "AggregationWeights",
    "CsvMetricsWriter",
    "DatasetPartition",
    "DIVERGENCE_LIMIT",
    "FederationConfig",
    "LossSpec",
    "ModelParameters",
    "RoundMetrics",
    "RoundPlan",
    "SyntheticSpec",
    "TrainingDivergedError",
    "aggregate",
    "check_shared_feature_space",
    "client_round_seed",
    "compute_weights",
    "generate_partitions",
    "global_loss",
    "initial_model",
    "load_partition",
    "load_partitions",
    "local_train",
    "read_manifest",
    "read_metrics_csv",
    "run_federation",
    "save_partition",
    "select_clients",
    "training_accuracy",
    "write_dataset",
]
