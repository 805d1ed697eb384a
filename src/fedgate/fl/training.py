"""Local client training, and federation-wide loss and accuracy from one score vector."""

from __future__ import annotations

import os
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

# The fewest rows whose evaluation ``FleetScores`` splits with its worker thread.
# One round's fill, loss and accuracy of a generated fleet (100-row clients,
# d=20, logistic with bias, one BLAS thread) on a 2-CPU x86 host took, on one
# thread against two, in µs: 10,000 rows 126 / 222, 15,000 215 / 228, 20,000
# 288 / 356 and 297 / 275 in a second run, 25,000 365 / 333, 40,000 573 / 459,
# 100,000 1,583 / 929.
SPLIT_ROWS = 25_000


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
        raise FedGateError(f"training diverged on client {client_id!r}: {failures[client_id]}")
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
    """Each sample's linear score, loss term and accuracy hit over a fixed fleet,
    in its order, refilled in place.

    Clients form runs from their start and size alone: a client of the previous
    client's size, as far past it as the run's items are apart, joins the run as
    one more item; any other client starts one. Each run is one batched matmul on
    an ``(items, rows, d)`` view of the fleet's pool, so no pooled copy is made,
    and numpy computes it item by item as each client's own product, so each
    score keeps its per-partition bits.

    A fleet of ``SPLIT_ROWS`` rows or more, on a host that lets this process run
    on two CPUs or more, is filled in two halves at once: clients up to the
    boundary nearest half the rows on the calling thread, the rest on one worker
    thread this object owns, joined before ``fill`` returns. Each client's
    product is one matmul item and every other step is elementwise either way,
    so the halves change no bit. The worker runs numpy on its own rows only;
    use the object in a ``with`` block, whose end shuts the worker down."""

    def __init__(self, fleet: Fleet, loss: LossSpec):
        ends = np.cumsum(fleet.sizes)
        rows = int(ends[-1])
        cut = int(np.abs(2 * ends - rows).argmin()) + 1  # clients [0, cut) end nearest rows / 2
        if rows < SPLIT_ROWS or len(os.sched_getaffinity(0)) < 2:
            cut = len(fleet)
        self.scores, self.terms, self.hits = np.empty(rows), np.empty(rows), np.empty(rows, dtype=bool)
        x, y = fleet.features, fleet.labels
        self._halves, labels, end = [], [], 0
        for clients in (range(cut), range(cut, len(fleet))):
            runs = []  # [first start, items, rows per item, item step]
            for start, n in zip(fleet.starts[clients].tolist(), fleet.sizes[clients].tolist()):
                run = runs[-1] if runs else None
                if run and n == run[2] and (run[1] == 1 or start - last == run[3]):
                    run[1], run[3] = run[1] + 1, start - last
                else:
                    runs.append([start, 1, n, 0])
                last = start
            views, first = [], end
            for start, c, n, step in runs:
                out, end = self.scores[end : end + c * n].reshape(c, n), end + c * n
                views.append((as_strided(x[start:], (c, n, x.shape[1]), (step * x.strides[0], *x.strides)), out))
                labels.append(as_strided(y[start:], (c, n), (step * y.strides[0], *y.strides)).reshape(-1))
            if views:
                self._halves.append((views, slice(first, end)))
        self.labels = np.concatenate(labels)
        self._dim, self._bias, self._logistic = loss.feature_dim, loss.bias, loss.kind == "logistic"
        self._worker = None
        if len(self._halves) > 1:
            from concurrent.futures import ThreadPoolExecutor  # here: a fleet that never splits loads no pool

            self._worker = ThreadPoolExecutor(1, "fleet-scores")

    def __enter__(self) -> "FleetScores":
        return self

    def __exit__(self, *exc_info) -> None:
        if self._worker is not None:
            self._worker.shutdown()

    def fill(self, model: np.ndarray) -> np.ndarray:
        """Score every sample under ``model``, with its loss term and hit; returns the scores."""
        futures = [self._worker.submit(self._fill, model, *half) for half in self._halves[1:]]
        try:
            self._fill(model, *self._halves[0])
        finally:
            for future in futures:  # a worker's error reaches the caller
                future.result()
        return self.scores

    def _fill(self, model: np.ndarray, runs: list, rows: slice) -> None:
        """Fill ``rows``, the rows of ``runs``: numpy on their slices only, so the worker may run it.

        Logistic softplus is taken as max(z, 0) + log1p(exp(-|z|)), the formula
        ``np.logaddexp(0, z)`` uses, but with numpy's vectorised ``exp``: one
        ``exp`` and one ``log1p`` per sample. A logistic hit is sigmoid p >= 0.5
        matching a {0,1} label, read as z >= ``SIGMOID_HALF`` (so no ``exp``); a
        squared-error hit is |z - y| <= 0.5."""
        for features, out in runs:
            np.matmul(features, model[: self._dim], out=out)
        scores, labels, terms, hits = self.scores[rows], self.labels[rows], self.terms[rows], self.hits[rows]
        if self._bias:
            scores += model[self._dim]
        if self._logistic:
            np.abs(scores, out=terms)
            np.negative(terms, out=terms)
            np.exp(terms, out=terms)
            np.log1p(terms, out=terms)
            terms += np.maximum(scores, 0.0)
            terms -= labels * scores
            np.greater_equal(scores, SIGMOID_HALF, out=hits)
            np.equal(hits, labels >= 0.5, out=hits)
        else:
            np.subtract(scores, labels, out=terms)
            np.less_equal(np.abs(terms), 0.5, out=hits)
            np.square(terms, out=terms)


def global_loss(evaluation: FleetScores, model: np.ndarray) -> float:
    """Mean loss of ``model`` over the fleet: fills ``evaluation`` for it (its
    scores, loss terms and hits) and averages the terms on the calling thread."""
    evaluation.fill(model)
    return float(np.mean(evaluation.terms))


def training_accuracy(evaluation: FleetScores) -> float:
    """Share of samples right under the model ``evaluation`` was last filled for."""
    return int(np.count_nonzero(evaluation.hits)) / evaluation.hits.shape[0]
