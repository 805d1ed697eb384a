"""Client selection, weighted aggregation, and the full federated loop.

Each round the server samples a client subset, the selected clients train
locally in isolation (stepped together as one stack, which leaves each
client's update unchanged), and the server combines the returned models as
a convex combination. The reduction always runs in ascending client-id
order so runs are bit-reproducible.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Collection, Mapping

import numpy as np

from ..errors import ValidationError
from .config import FederationConfig
from .data import Fleet
from .metrics import RoundMetrics
from .training import FleetScores, global_loss, local_train, training_accuracy


# The most rows a job may step through (rounds x K x E x the largest client's
# rows), 50 times a bench job's; it also bounds a round's E x n keys per client.
MAX_JOB_ROWS = 10_000_000
# The most steps a job may take (rounds x K x E x the largest client's steps per
# epoch), 50 times a bench train-deep job's: a one-row batch takes a step per row.
MAX_JOB_STEPS = 1_000_000


def _seed_key(seed: int) -> int:
    return seed & 0xFFFFFFFFFFFFFFFF


def client_round_seed(rng_seed: int, round_index: int, client_id: str) -> int:
    """Stable per-(round, client) seed for local minibatch shuffling, from a
    SHA-256: ``training.epoch_orders`` expands it into the client's epoch orders."""
    digest = hashlib.sha256(
        b"%d:%d:%s" % (_seed_key(rng_seed), round_index, client_id.encode("utf-8"))
    ).digest()
    return int.from_bytes(digest[:8], "big")


def select_clients(config: FederationConfig, t: int, client_ids: Collection[str]) -> tuple[str, ...]:
    """Sample a uniform K-subset without replacement for round ``t``, sorted ascending.

    The stream is keyed by (rng_seed, t) so every round is independently
    reproducible; ``run_federation`` passes each ``t`` in [1, T] and a roster
    without duplicates, in any order (sorted here). When the roster is
    smaller than K (a client was lost without standby), K is clamped to it.
    """
    roster = sorted(client_ids)
    if not roster:  # every remaining client was lost
        raise ValidationError("no eligible clients to select from")
    k = min(config.subset_size, len(roster))
    rng = np.random.default_rng([_seed_key(config.rng_seed), t])
    chosen = rng.choice(len(roster), size=k, replace=False)
    return tuple(sorted(roster[i] for i in chosen))


def compute_weights(cohort: Fleet, config: FederationConfig) -> dict[str, float]:
    """Convex weights over the round's cohort: data-size proportional or uniform.
    Each client holds at least one sample, so every weight lies in (0, 1] and
    the weights sum to 1 up to float error."""
    raw = [1.0] * len(cohort) if config.weighting == "uniform" else [float(n) for n in cohort.sizes.tolist()]
    total = sum(raw)
    return {cid: w / total for cid, w in zip(cohort.ids, raw)}


def aggregate(updates: Mapping[str, np.ndarray], weights: Mapping[str, float]) -> np.ndarray:
    """Convex combination of client models over one cohort's ids, reduced in
    ascending id order: the running sum ``acc + w * u`` from ``acc = 0``, in one
    ``accumulate`` under a zero row (a ``reduce`` sums a one-coordinate model pairwise)."""
    ids = sorted(updates)
    terms = np.zeros((len(ids) + 1, len(updates[ids[0]])))
    np.multiply(np.array([weights[c] for c in ids])[:, None], [updates[c] for c in ids], out=terms[1:])
    return np.add.accumulate(terms, axis=0)[-1]


def check_fleet(config: FederationConfig, fleet: Fleet) -> Fleet:
    """``fleet`` sorted by id, checked against ``config``: one client per
    configured client, each once, of the loss spec's dimension, and at most
    ``MAX_JOB_ROWS`` rows and ``MAX_JOB_STEPS`` steps taken over the job."""
    if not all(a < b for a, b in zip(fleet.ids, fleet.ids[1:])):  # sorted, an id held twice is adjacent
        fleet = fleet.select(sorted(range(len(fleet)), key=fleet.ids.__getitem__))
        if any(a == b for a, b in zip(fleet.ids, fleet.ids[1:])):
            raise ValidationError("duplicate client ids across partitions")
    if len(fleet) != config.total_clients:
        raise ValidationError(f"{len(fleet)} partitions for {config.total_clients} configured clients")
    d = fleet.features.shape[1]
    if d != config.loss.feature_dim:
        raise ValidationError(f"partition feature dimension {d} does not match loss spec {config.loss.feature_dim}")
    client_epochs, n = config.total_rounds * config.subset_size * config.local_epochs, int(fleet.sizes.max())
    if client_epochs * n > MAX_JOB_ROWS:
        raise ValidationError(
            f"total_rounds x subset_size x local_epochs x the largest client's rows is {client_epochs * n}, over {MAX_JOB_ROWS}"
        )
    steps = client_epochs * -(-n // (config.batch_size if config.batch_mode == "minibatch" else n))
    if steps > MAX_JOB_STEPS:
        raise ValidationError(
            f"total_rounds x subset_size x local_epochs x the largest client's steps per epoch is {steps}, over {MAX_JOB_STEPS}"
        )
    return fleet


def initial_model(config: FederationConfig) -> np.ndarray:
    """The round-0 model: one float64 vector of the loss spec's dimension."""
    if config.initial_weights is not None:
        return np.array(config.initial_weights)
    return np.zeros(config.loss.parameter_dim)


def run_federation(
    config: FederationConfig,
    fleet: Fleet,
    observer: Callable[[RoundMetrics], object] | None = None,
    *,
    eligibility: Callable[[int], frozenset[str]] | None = None,
) -> np.ndarray:
    """Execute rounds 1..T of select / local-train / aggregate from ``initial_model``.

    Per-round metrics go to ``observer``, whose truthy return ends the run
    after that round; loss and accuracy both come from one ``FleetScores``
    fill per round, whose worker thread, if it has one, ends with the run
    however the run ends. ``eligibility(t)`` runs before round ``t`` and
    returns the fleet's clients that may be selected in it (failover
    exclusions); it may raise to abort the run. All per-round seeds are keyed
    by the absolute round index, so the run is bit-reproducible for a fixed
    config and fleet.
    """
    fleet = check_fleet(config, fleet)
    index = {cid: i for i, cid in enumerate(fleet.ids)}
    roster = fleet.ids  # sorted; sorted again only when the eligible set changes
    eligible_before = all_ids = frozenset(roster)
    stacks = {}  # the job's training stacks by (clients, rows), see ``local_train``
    model = initial_model(config)

    with FleetScores(fleet, config.loss) as evaluation:  # its worker, if any, lives as long as the job
        for t in range(1, config.total_rounds + 1):
            eligible = eligibility(t) if eligibility is not None else all_ids
            if eligible != eligible_before:
                eligible_before, roster = eligible, tuple(sorted(eligible))
            selected = select_clients(config, t, roster)

            # Clients are mutually independent, so the round's cohort trains in
            # one stacked call; aggregation still reduces in sorted-id order.
            cohort = fleet.select([index[cid] for cid in selected])
            seeds = (client_round_seed(config.rng_seed, t, cid) for cid in selected)  # drawn under minibatch only
            updates = dict(zip(selected, local_train(model, cohort, config, seeds, stacks)))

            # local_train holds each update within DIVERGENCE_LIMIT, so this convex combination is within it too
            model = aggregate(updates, compute_weights(cohort, config))

            loss = global_loss(evaluation, model)  # fills the evaluation that accuracy reads
            metrics = RoundMetrics(
                round_index=t,
                global_loss=loss,
                train_accuracy=training_accuracy(evaluation),
                selected_clients=selected,
            )
            if observer is not None and observer(metrics):
                break
    return model
