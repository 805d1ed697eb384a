"""The two losses' analytic gradient, stacked over a cohort of clients.

Two kinds are supported, both reduced as the mean over samples so the
learning rate stays independent of partition size:

* squared_error:  loss = mean((Xw - y)^2),      grad = (2/m) X^T (Xw - y)
* logistic:       loss = mean(softplus(z) - yz), grad = (1/m) X^T (sigma(z) - y)
  with z = Xw and labels in {0, 1}, and sigma(z) = exp(min(z, 0)) / (1 + e),
  e = exp(-|z|), from one exp: 1 / (1 + e) for z >= 0 and e / (1 + e) below.

When the spec enables a bias term, the final model coordinate is the
intercept, added to each score as its own term. ``StackedGradient`` is the
trainer's gradient; the losses themselves, over a whole fleet's scores, are
``training.global_loss`` and ``training.training_accuracy``. The one-model
reference implementations the tests hold these to live with the tests.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from .config import LossSpec


def _sigmoid(z: np.ndarray, buffers: tuple[np.ndarray, np.ndarray, np.ndarray]) -> np.ndarray:
    """sigma(z) in ``numerator``, with ``buffers`` an array (2, *z.shape) and its two halves."""
    both, e, numerator = buffers
    np.negative(z, out=e)
    np.minimum(z, e, out=e)  # -|z|, but a NaN keeps its sign bit
    np.minimum(z, 0.0, out=numerator)
    np.exp(both, out=both)
    e += 1.0
    return np.divide(numerator, e, out=numerator)


class StackedGradient:
    """k clients' mean-loss gradients (k, p) at ``weights`` (k, p), each yielded in
    ``grad``, over their n rows (filled by ``gather``) ``batch`` at a time, the
    last batch maybe short. Buffers are built once; ``weights`` is read at each
    step, so the caller updates it in place. A row's bits ignore the other rows."""

    def __init__(self, weights: np.ndarray, n: int, batch: int, loss: LossSpec):
        k, d, logistic = weights.shape[0], loss.feature_dim, loss.kind == "logistic"
        self.grad = np.empty_like(weights)
        self._w, self._grad_w = weights[:, :d, None], self.grad[:, None, :d]
        self._bias = (weights[:, d:], self.grad[:, d]) if loss.bias else None
        # Every buffer holds the rows batch by batch, so each batch's slice is contiguous.
        self._x, self._y, z, e = np.empty((k * n, d)), np.empty(k * n), np.empty(k * n), np.empty(2 * k * n)
        self._layout = np.concatenate([np.arange(k * n).reshape(k, n)[:, i : i + batch].ravel() for i in range(0, n, batch)])
        self._batches = []
        for i in range(0, n, batch):
            m, cells = min(batch, n - i), slice(k * i, k * min(i + batch, n))
            scores, both = z[cells].reshape(k, m, 1), e[2 * cells.start : 2 * cells.stop].reshape(2, k, m)
            sigmoid = (both, *both) if logistic else None
            x, y, scale = self._x[cells].reshape(k, m, d), self._y[cells].reshape(k, m), (1.0 if logistic else 2.0) / m
            self._batches.append((x, y, scores, scores[..., 0], scores[:, None, :, 0], both[0], sigmoid, scale))

    def gather(self, pool_x: np.ndarray, pool_y: np.ndarray, rows: np.ndarray) -> None:
        """Take the features and labels at ``rows`` (k, n) of the pool, in batch order."""
        order = rows.take(self._layout)
        pool_x.take(order, axis=0, out=self._x, mode="clip")  # rows are in range; "raise" would copy through a buffer
        pool_y.take(order, out=self._y, mode="clip")

    def __iter__(self) -> Iterator[np.ndarray]:
        for x, y, scores, z, r, bias_rows, sigmoid, scale in self._batches:
            np.matmul(x, self._w, out=scores)
            if self._bias is not None:
                # copyto broadcasts without the (k, m) scratch a broadcast add takes
                np.copyto(bias_rows, self._bias[0])
                z += bias_rows
            np.subtract(z if sigmoid is None else _sigmoid(z, sigmoid), y, out=z)  # the residual, r in (k, 1, m)
            np.matmul(r, x, out=self._grad_w)
            if self._bias is not None:
                np.add.reduce(z, axis=1, out=self._bias[1])
            self.grad *= scale
            yield self.grad
