"""Local client training, and federation-wide loss and accuracy from one score vector."""

from __future__ import annotations

from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import as_strided

from ..errors import FedGateError
from .config import FederationConfig, LossSpec
from .data import DatasetPartition
from .losses import stacked_gradient

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
    partitions: Sequence[DatasetPartition],
    config: FederationConfig,
    round_seeds: Sequence[int],
) -> np.ndarray:
    """Run E epochs of gradient descent on each partition's mean loss, all at once;
    row i of the returned ``(k, p)`` array is ``partitions[i]``'s update.

    Equally sized partitions train as one ``(k, n, d)`` stack, one
    ``stacked_gradient`` per step. Each client draws its E epochs' minibatch
    orders in one ``permuted`` call on its own round seed (full batch ignores
    it), so its update has the same bits whichever clients share the call.
    Those orders, offset to each client's rows of the flat ``(k*n, d)`` stack
    once per round, let each epoch gather its ``(k, n, d)`` batch in one
    ``take``. The input model is never modified. If clients diverge, the error
    names the lowest id among them and the first check that client failed, as
    training them one by one in id order would. Dimensions come checked by
    ``check_fleet`` and ``initial_model``.
    """
    loss, minibatch = config.loss, config.batch_mode == "minibatch"
    groups: dict[int, list[int]] = {}
    for i, p in enumerate(partitions):
        groups.setdefault(p.size, []).append(i)
    trained = np.empty((len(partitions), model.shape[0]))
    failures: dict[str, str] = {}
    with np.errstate(over="ignore", invalid="ignore"):  # a diverged row steps on to the end
        for n, members in groups.items():
            ids = [partitions[i].client_id for i in members]
            x = np.stack([partitions[i].features for i in members])
            y = np.stack([partitions[i].labels for i in members])
            weights = np.tile(model, (len(members), 1))
            if minibatch:
                epochs = np.tile(np.arange(n), (config.local_epochs, 1))
                seeds = [round_seeds[i] & 0xFFFFFFFFFFFFFFFF for i in members]
                orders = np.stack([np.random.default_rng([s]).permuted(epochs, axis=1) for s in seeds])
                rows = orders + np.arange(0, len(members) * n, n)[:, None, None]  # into the flat stack
                flat_x, flat_y = x.reshape(-1, x.shape[2]), y.reshape(-1)
            step = config.batch_size if minibatch else n
            for epoch in range(config.local_epochs):
                if minibatch:
                    xe, ye = flat_x.take(rows[:, epoch], axis=0), flat_y.take(rows[:, epoch])
                else:
                    xe, ye = x, y
                for i in range(0, n, step):
                    grad = stacked_gradient(weights, xe[:, i : i + step], ye[:, i : i + step], loss)
                    if not np.isfinite(grad).all():
                        _note(failures, ids, ~np.isfinite(grad).all(axis=1), "non-finite gradient")
                    weights -= config.learning_rate * grad
                peak = np.abs(weights).max(axis=1)  # NaN for a row holding one, so it fails too
                if not (peak <= DIVERGENCE_LIMIT).all():
                    _note(failures, ids, ~np.isfinite(weights).all(axis=1), "non-finite weights")
                    _note(failures, ids, peak > DIVERGENCE_LIMIT, f"weight magnitude exceeded {DIVERGENCE_LIMIT:g}")
            trained[members] = weights
    if failures:
        client_id = min(failures)
        raise TrainingDivergedError(client_id, failures[client_id])
    return trained


def _note(failures: dict[str, str], ids: list[str], bad: np.ndarray, detail: str) -> None:
    """Keep each client's first failed check."""
    for i in np.flatnonzero(bad):
        failures.setdefault(ids[i], detail)


class FleetScores:
    """One linear score per sample of a fixed partition list, refilled in place.

    Partitions that are row ranges of one array (as in the locked pool of
    ``generate_partitions`` and ``load_partitions``) form runs, each scored by
    one matmul on a ``(items, rows, d)`` view, so no pooled copy is made:

    * adjacent ranges merge into one item. BLAS sums a product's last
      ``rows % 4`` rows, and a one-row product, with other kernels (other low
      bits) than the rest, so an item grows only past a member of a multiple of
      four rows and never by a one-row member;
    * equal-size ranges at a constant stride (every k-th client of a pool, or
      capped partitions of one) are the items of one batched product, which
      numpy computes item by item as each partition's own product;
    * anything else is a run of its own.

    So on one BLAS thread each score keeps its per-partition bits."""

    def __init__(self, partitions: list[DatasetPartition], loss: LossSpec):
        self.labels = np.concatenate([p.labels for p in partitions])
        self.scores = np.empty_like(self.labels)
        runs: list[list] = []  # [first member's features, items, rows per item, item stride in bytes]
        # The last member's (owner id, strides), its item's address, and where a
        # member must start to merge onto it.
        owner = last = merge_at = None
        for p in partitions:
            x, n = p.features, p.size
            # ctypes.data reads an address faster than __array_interface__, whose
            # per-call dict also grew a 1,000-partition job's peak RSS by about 1 MB.
            start, key = x.ctypes.data, (id(x.base), x.strides)
            run = runs[-1] if x.base is not None and key == owner else None
            if run is not None and run[1] == 1 and n > 1 and start == merge_at:
                run[2] += n
            elif run is not None and n == run[2] and (run[1] == 1 or start - last == run[3]):
                run[1], run[3], last = run[1] + 1, start - last, start
            else:
                runs.append([x, 1, n, 0])
                last = start
            owner, merge_at = key, (start + n * x.strides[0] if n % 4 == 0 else None)
        ends = np.cumsum([c * n for _, c, n, _ in runs])
        self._runs = [
            (as_strided(x, (c, n, x.shape[1]), (step, *x.strides)), self.scores[e - c * n : e].reshape(c, n))
            for (x, c, n, step), e in zip(runs, ends)
        ]
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
