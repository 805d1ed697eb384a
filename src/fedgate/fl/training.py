"""Local client training, and federation-wide loss and accuracy from one score vector."""

from __future__ import annotations

import numpy as np

from ..errors import FedGateError, ValidationError
from .config import FederationConfig, LossSpec
from .data import DatasetPartition
from .losses import _sigmoid, gradient
from .model import ModelParameters

# A job is aborted once any weight magnitude passes this bound.
DIVERGENCE_LIMIT = 1e6


class TrainingDivergedError(FedGateError):
    """Local training produced non-finite or unbounded weights."""

    def __init__(self, client_id: str, detail: str):
        self.client_id = client_id
        super().__init__(f"training diverged on client {client_id!r}: {detail}")


def local_train(
    model: ModelParameters,
    partition: DatasetPartition,
    config: FederationConfig,
    round_seed: int,
) -> ModelParameters:
    """Run E epochs of gradient descent on the partition's mean loss.

    Deterministic in (model, partition, config, round_seed); the input
    model is never modified. The round seed only feeds minibatch
    shuffling, so full-batch runs ignore it.
    """
    if model.dimension != config.loss.parameter_dim:
        raise ValidationError(
            f"model dimension {model.dimension} does not match loss parameter "
            f"dimension {config.loss.parameter_dim}"
        )
    weights = model.weights.copy()
    eta = config.learning_rate
    rng = (
        np.random.default_rng([round_seed & 0xFFFFFFFFFFFFFFFF])
        if config.batch_mode == "minibatch"
        else None
    )

    for _ in range(config.local_epochs):
        if config.batch_mode == "full":
            batches = [(partition.features, partition.labels)]
        else:
            order = rng.permutation(partition.size)
            size = config.batch_size
            batches = [
                (partition.features[order[i : i + size]], partition.labels[order[i : i + size]])
                for i in range(0, partition.size, size)
            ]
        for x, y in batches:
            grad = gradient(ModelParameters(weights), x, y, config.loss)
            if not np.all(np.isfinite(grad)):
                raise TrainingDivergedError(partition.client_id, "non-finite gradient")
            weights = weights - eta * grad
        if not np.all(np.isfinite(weights)):
            raise TrainingDivergedError(partition.client_id, "non-finite weights")
        if np.max(np.abs(weights)) > DIVERGENCE_LIMIT:
            raise TrainingDivergedError(
                partition.client_id, f"weight magnitude exceeded {DIVERGENCE_LIMIT:g}"
            )
    return ModelParameters(weights)


class FleetScores:
    """One linear score per sample of a fixed partition list, refilled in place: each
    partition fills its row slice of ``scores`` with one matmul on its own features,
    so no pooled copy of the data is made. ``labels`` lines up with ``scores``."""

    def __init__(self, partitions: list[DatasetPartition], loss: LossSpec):
        self.labels = np.concatenate([p.labels for p in partitions])
        self.scores = np.empty_like(self.labels)
        ends = np.cumsum([p.size for p in partitions])
        self._rows = [(p.features, self.scores[e - p.size : e]) for p, e in zip(partitions, ends)]
        self._dim, self._bias = loss.feature_dim, loss.bias

    def fill(self, model: ModelParameters) -> np.ndarray:
        for features, out in self._rows:
            np.matmul(features, model.weights[: self._dim], out=out)
        if self._bias:
            self.scores += model.weights[self._dim]
        return self.scores


def global_loss(scores: np.ndarray, labels: np.ndarray, loss: LossSpec) -> float:
    """Mean loss over the pooled samples' scores; ``mean_loss`` on the same scores."""
    if loss.kind == "squared_error":
        return float(np.mean((scores - labels) ** 2))
    return float(np.mean(np.logaddexp(0.0, scores) - labels * scores))


def training_accuracy(scores: np.ndarray, labels: np.ndarray, loss: LossSpec) -> float:
    """Share of samples right under ``predict``: p >= 0.5 matches a {0,1} label, or |z - y| <= 0.5."""
    if loss.kind == "logistic":
        hits = (_sigmoid(scores) >= 0.5) == (labels >= 0.5)
    else:
        hits = np.abs(scores - labels) <= 0.5
    return int(np.count_nonzero(hits)) / labels.shape[0]
