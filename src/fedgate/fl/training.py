"""Local client training, and federation-wide loss and accuracy from one score vector."""

from __future__ import annotations

from typing import Iterable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import FedGateError
from .config import FederationConfig, LossSpec
from .data import Fleet
from .losses import StackedGradient

# A job is aborted once any weight magnitude passes this bound.
DIVERGENCE_LIMIT = 1e6

# The least z with ``_sigmoid(z) >= 0.5``. Below zero ``_sigmoid`` is e / (1 + e)
# with e = exp(-|z|), which is 0.5 only while numpy's exp rounds e to 1.0; its
# SIMD exp does so down to here (the tests pin this against ``_sigmoid``).
SIGMOID_HALF = -4.510281037539698e-17


class TrainingDivergedError(FedGateError):
    """Local training produced non-finite or unbounded weights."""

    def __init__(self, client_id: str, detail: str):
        self.client_id = client_id
        super().__init__(f"training diverged on client {client_id!r}: {detail}")


def local_train(
    model: np.ndarray,
    cohort: Fleet,
    config: FederationConfig,
    round_seeds: Iterable[int],
    stacks: dict[tuple[int, int], tuple[np.ndarray, StackedGradient]],
) -> np.ndarray:
    """Run E epochs of gradient descent on each client's mean loss, all at once;
    row i of the returned ``(k, p)`` array is client i's update.

    Equally sized clients train as one stack: a ``StackedGradient`` gathers
    their rows from the cohort's pool (once per epoch under minibatch) and
    steps them in place. ``stacks`` is one job's holder of each stack's
    weights and ``StackedGradient`` by (clients, rows), for one config: a
    shape it lacks is built, one this call does not use is dropped, and the
    weights are refilled from the model. Every buffer is written before it
    is read, so a held stack gives the bits a new one would. ``round_seeds``
    (one per client, in cohort order) is read only under minibatch, where
    ``epoch_orders`` draws every client's E epoch orders of a size group at
    once; each client's orders come from its own seed alone, so its update
    has the same bits whichever clients share it. The input model is never
    modified, and no returned row shares memory with ``stacks``. If clients
    diverge, the error names the lowest id among them and the first check
    that client failed, as training them one by one in id order would.
    Dimensions come checked by ``check_fleet`` and ``initial_model``.
    """
    loss, lr, minibatch = config.loss, config.learning_rate, config.batch_mode == "minibatch"
    if minibatch:
        round_seeds = np.array([s & 0xFFFFFFFFFFFFFFFF for s in round_seeds], dtype=np.uint64)
    trained = np.empty((len(cohort), model.shape[0]))
    failures: dict[str, str] = {}
    groups = {}
    for n in dict.fromkeys(cohort.sizes.tolist()):
        members = np.flatnonzero(cohort.sizes == n)
        groups[len(members), n] = members
    for shape in stacks.keys() - groups.keys():  # the holder keeps this round's shapes only
        del stacks[shape]
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged row steps on to the end
        for (k, n), members in groups.items():
            if (k, n) not in stacks:
                weights = np.empty((k, model.shape[0]))
                stacks[k, n] = weights, StackedGradient(weights, n, config.batch_size if minibatch else n, loss)
            weights, gradient = stacks[k, n]
            np.copyto(weights, model)
            ids = [cohort.ids[i] for i in members]
            starts = cohort.starts[members]
            if minibatch:
                rows = epoch_orders(round_seeds[members], config.local_epochs, n)
                rows += starts[:, None, None]  # (k, E, n) rows of the pool
            else:
                rows = (starts[:, None] + np.arange(n))[:, None]  # (k, 1, n): every epoch's rows
            for epoch in range(config.local_epochs):
                if minibatch or not epoch:
                    gradient.gather(cohort.features, cohort.labels, rows[:, epoch])
                epoch_start = weights.copy()
                # A non-finite gradient leaves its row non-finite to the epoch's end (lr is
                # finite and >= 0), so an epoch that ends with every row within the limit
                # had none. One that does not runs again from its start, each step checked.
                for checked in (False, True):
                    for grad in gradient:
                        if checked and not np.isfinite(grad).all():
                            _note(failures, ids, ~np.isfinite(grad).all(axis=1), "non-finite gradient")
                        grad *= lr
                        weights -= grad
                    peak = np.abs(weights).max(axis=1)  # NaN for a row holding one, so it fails too
                    if checked or (peak <= DIVERGENCE_LIMIT).all():
                        break
                    np.copyto(weights, epoch_start)
                if checked:
                    _note(failures, ids, ~np.isfinite(weights).all(axis=1), "non-finite weights")
                    _note(failures, ids, peak > DIVERGENCE_LIMIT, f"weight magnitude exceeded {DIVERGENCE_LIMIT:g}")
            trained[members] = weights
    if failures:
        client_id = min(failures)
        raise TrainingDivergedError(client_id, failures[client_id])
    return trained


def epoch_orders(seeds: np.ndarray, epochs: int, n: int) -> np.ndarray:
    """Each uint64 seed's ``epochs`` orders of ``range(n)``, (k, epochs, n) int64.

    An epoch sorts the seed's next n SplitMix64 (Steele, Lea and Flood, OOPSLA
    2014) outputs with their low b = max(1, (n - 1).bit_length()) bits replaced
    by the row, so its keys are distinct and its order is unique whatever sort
    numpy runs. The arithmetic stays on arrays, which wrap where scalars warn.
    """
    keys = np.arange(1, epochs * n + 1, dtype=np.uint64)
    keys *= 0x9E3779B97F4A7C15
    keys = np.add(seeds[:, None], keys)  # the states after 1 .. E*n steps
    shifted = np.empty_like(keys)
    for shift, multiplier in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB), (31, None)):
        np.right_shift(keys, shift, out=shifted)
        keys ^= shifted
        if multiplier is not None:
            keys *= multiplier
    low = max(1, (n - 1).bit_length())
    keys >>= low
    keys <<= low
    keys = keys.reshape(len(seeds), epochs, n)
    keys |= np.arange(n, dtype=np.uint64)
    keys.sort(axis=-1)
    keys &= (1 << low) - 1
    return keys.view(np.int64)


def _note(failures: dict[str, str], ids: list[str], bad: np.ndarray, detail: str) -> None:
    """Keep each client's first failed check."""
    for i in np.flatnonzero(bad):
        failures.setdefault(ids[i], detail)


class FleetScores:
    """One linear score per sample of a fixed fleet, in its order, refilled in place.

    Clients form runs from their start and size alone: a client of the previous
    client's size, as far past it as the run's items are apart, joins the run as
    one more item; any other client starts one. Each run is one batched matmul on
    an ``(items, rows, d)`` view of the fleet's pool, so no pooled copy is made,
    and numpy computes it item by item as each client's own product, so each
    score keeps its per-partition bits."""

    def __init__(self, fleet: Fleet, loss: LossSpec):
        runs = []  # [first start, items, rows per item, item step]
        for start, n in zip(fleet.starts.tolist(), fleet.sizes.tolist()):
            run = runs[-1] if runs else None
            if run and n == run[2] and (run[1] == 1 or start - last == run[3]):
                run[1], run[3] = run[1] + 1, start - last
            else:
                runs.append([start, 1, n, 0])
            last = start
        self.scores = np.empty(int(fleet.sizes.sum()))
        x, y = fleet.features, fleet.labels
        self._runs, labels, end = [], [], 0
        for start, c, n, step in runs:
            out, end = self.scores[end : end + c * n].reshape(c, n), end + c * n
            self._runs.append((as_strided(x[start:], (c, n, x.shape[1]), (step * x.strides[0], *x.strides)), out))
            labels.append(as_strided(y[start:], (c, n), (step * y.strides[0], *y.strides)).reshape(-1))
        self.labels = np.concatenate(labels)
        self._dim, self._bias = loss.feature_dim, loss.bias

    def fill(self, model: np.ndarray) -> np.ndarray:
        for features, out in self._runs:
            np.matmul(features, model[: self._dim], out=out)
        if self._bias:
            self.scores += model[self._dim]
        return self.scores


def global_loss(scores: np.ndarray, labels: np.ndarray, loss: LossSpec) -> float:
    """Mean loss over the pooled samples' scores. Logistic softplus is taken as
    max(z, 0) + log1p(exp(-|z|)), the formula ``np.logaddexp(0, z)`` uses, but
    with numpy's vectorised ``exp``: one ``exp`` and one ``log1p`` per sample."""
    if loss.kind == "squared_error":
        return float(np.mean((scores - labels) ** 2))
    out = np.abs(scores)
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(scores, 0.0)
    out -= labels * scores
    return float(np.mean(out))


def training_accuracy(scores: np.ndarray, labels: np.ndarray, loss: LossSpec) -> float:
    """Share of samples right: sigmoid p >= 0.5 matches a {0,1} label (read as
    z >= ``SIGMOID_HALF``, so no ``exp``), or |z - y| <= 0.5 for squared error."""
    if loss.kind == "logistic":
        hits = (scores >= SIGMOID_HALF) == (labels >= 0.5)
    else:
        hits = np.abs(scores - labels) <= 0.5
    return int(np.count_nonzero(hits)) / labels.shape[0]
