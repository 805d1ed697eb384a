"""Client selection, weighted aggregation, and the full federated loop.

Each round the server samples a client subset, the selected clients train
locally in isolation (stepped together as one stack, which leaves each
client's update unchanged), and the server combines the returned models as
a convex combination. The reduction always runs in ascending client-id
order so runs are bit-reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Collection, Mapping, Sequence

import numpy as np

from ..errors import ValidationError
from .config import FederationConfig
from .data import DatasetPartition, check_shared_feature_space
from .metrics import RoundMetrics
from .model import ModelParameters
from .training import (
    DIVERGENCE_LIMIT,
    FleetScores,
    TrainingDivergedError,
    global_loss,
    local_train,
    training_accuracy,
)

WEIGHT_SUM_TOLERANCE = 1e-12


@dataclass(frozen=True)
class AggregationWeights:
    """Per-client convex weights, summing to one."""

    entries: Mapping[str, float]

    def __post_init__(self) -> None:
        total = sum(self.entries.values())
        if abs(total - 1.0) > WEIGHT_SUM_TOLERANCE:
            raise ValidationError(f"aggregation weights sum to {total!r}, expected 1")
        if any(w < 0 or w > 1 for w in self.entries.values()):
            raise ValidationError("aggregation weights must lie in [0, 1]")
        object.__setattr__(self, "entries", dict(self.entries))


def _seed_key(seed: int) -> int:
    return seed & 0xFFFFFFFFFFFFFFFF


def client_round_seed(rng_seed: int, round_index: int, client_id: str) -> int:
    """Stable per-(round, client) seed for local minibatch shuffling."""
    digest = hashlib.sha256(
        b"%d:%d:%s" % (_seed_key(rng_seed), round_index, client_id.encode("utf-8"))
    ).digest()
    return int.from_bytes(digest[:8], "big")


def select_clients(config: FederationConfig, t: int, client_ids: Collection[str]) -> tuple[str, ...]:
    """Sample a uniform K-subset without replacement for round ``t``, sorted ascending.

    The stream is keyed by (rng_seed, t) so every round is independently
    reproducible. ``client_ids`` may come in any order (sorted here); when
    the roster is smaller than K (a client was lost without standby), K is
    clamped to the roster size.
    """
    if not 1 <= t <= config.total_rounds:
        raise ValidationError(f"round index {t} outside [1, {config.total_rounds}]")
    roster = sorted(client_ids)
    if not roster:
        raise ValidationError("no eligible clients to select from")
    if len(set(roster)) != len(roster):
        raise ValidationError("client roster contains duplicates")
    k = min(config.subset_size, len(roster))
    rng = np.random.default_rng([_seed_key(config.rng_seed), t])
    chosen = rng.choice(len(roster), size=k, replace=False)
    return tuple(sorted(roster[i] for i in chosen))


def compute_weights(
    cohort: Sequence[DatasetPartition], config: FederationConfig
) -> AggregationWeights:
    """Weights over the round's cohort: data-size proportional or uniform.

    A final renormalization pins the sum to 1 exactly up to float error.
    """
    if config.weighting == "uniform":
        raw = {p.client_id: 1.0 for p in cohort}
    else:
        raw = {p.client_id: float(p.size) for p in cohort}
    total = sum(raw.values())
    return AggregationWeights({cid: w / total for cid, w in raw.items()})


def aggregate(
    updates: Mapping[str, ModelParameters], weights: AggregationWeights
) -> ModelParameters:
    """Convex combination of client models, reduced in ascending id order."""
    if set(updates) != set(weights.entries):
        raise ValidationError(
            f"update keys {sorted(updates)} do not match weight keys "
            f"{sorted(weights.entries)}"
        )
    dims = {m.dimension for m in updates.values()}
    if len(dims) != 1:
        raise ValidationError(f"client models disagree on dimension: {sorted(dims)}")
    acc = np.zeros(dims.pop(), dtype=np.float64)
    for cid in sorted(updates):
        acc = acc + weights.entries[cid] * updates[cid].weights
    return ModelParameters(acc)


def check_fleet(
    config: FederationConfig, partitions: Sequence[DatasetPartition]
) -> list[DatasetPartition]:
    """``partitions`` sorted by id, checked against ``config``: one per configured
    client, all in one feature space, of the loss spec's dimension."""
    partitions = sorted(partitions, key=lambda p: p.client_id)
    if len(partitions) != config.total_clients:
        raise ValidationError(
            f"{len(partitions)} partitions for {config.total_clients} configured clients"
        )
    feature_dim = check_shared_feature_space(partitions)
    if feature_dim != config.loss.feature_dim:
        raise ValidationError(
            f"partition feature dimension {feature_dim} does not match loss spec "
            f"{config.loss.feature_dim}"
        )
    return partitions


def initial_model(config: FederationConfig) -> ModelParameters:
    if config.initial_weights is not None:
        return ModelParameters.from_values(config.initial_weights)
    return ModelParameters.zeros(config.loss.parameter_dim)


def run_federation(
    config: FederationConfig,
    partitions: Sequence[DatasetPartition],
    observer: Callable[[RoundMetrics], None] | None = None,
    *,
    eligibility: Callable[[int], frozenset[str]] | None = None,
    early_stop: Callable[[RoundMetrics], bool] | None = None,
) -> ModelParameters:
    """Execute rounds 1..T of select / local-train / aggregate from ``initial_model``.

    Per-round metrics go to ``observer``; loss and accuracy both come from
    one ``FleetScores`` vector per round. ``eligibility(t)`` runs before round
    ``t`` and returns the clients that may be selected in it (failover
    exclusions); it may raise to abort the run. ``early_stop`` can end the run
    after any round. All per-round seeds are keyed by the absolute round index,
    so the run is bit-reproducible for a fixed config and partition set.
    """
    partitions = check_fleet(config, partitions)
    by_id = {p.client_id: p for p in partitions}
    roster = tuple(by_id)  # sorted; sorted again only when the eligible set changes
    eligible_before = all_ids = frozenset(by_id)
    fleet = FleetScores(partitions, config.loss)
    model = initial_model(config)

    for t in range(1, config.total_rounds + 1):
        eligible = eligibility(t) if eligibility is not None else all_ids
        if eligible != eligible_before:
            unknown = eligible - all_ids
            if unknown:
                raise ValidationError(f"eligible set references unknown clients: {sorted(unknown)}")
            eligible_before, roster = eligible, tuple(sorted(eligible))
        selected = select_clients(config, t, roster)

        # Clients are mutually independent, so the round's cohort trains in
        # one stacked call; aggregation still reduces in sorted-id order.
        cohort = [by_id[cid] for cid in selected]
        seeds = [client_round_seed(config.rng_seed, t, cid) for cid in selected]
        updates = dict(zip(selected, local_train(model, cohort, config, seeds)))

        model = aggregate(updates, compute_weights(cohort, config))
        if model.max_abs() > DIVERGENCE_LIMIT:
            raise TrainingDivergedError("<aggregate>", f"global weight magnitude exceeded {DIVERGENCE_LIMIT:g}")

        scores = fleet.fill(model)
        metrics = RoundMetrics(
            round_index=t,
            global_loss=global_loss(scores, fleet.labels, config.loss),
            train_accuracy=training_accuracy(scores, fleet.labels, config.loss),
            selected_clients=selected,
        )
        if observer is not None:
            observer(metrics)
        if early_stop is not None and early_stop(metrics):
            break
    return model
