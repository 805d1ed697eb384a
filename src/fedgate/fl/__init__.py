"""Federated learning core: losses, local training, selection, aggregation."""

from .config import FederationConfig, LossSpec
from .data import DatasetPartition, load_partitions
from .datagen import SyntheticSpec, generate_partitions, write_dataset
from .federation import check_fleet, run_federation
from .metrics import CsvMetricsWriter, RoundMetrics, read_metrics_csv
