"""The two losses' analytic gradient, stacked over a cohort of clients.

Two kinds are supported, both reduced as the mean over samples so the
learning rate stays independent of partition size:

* squared_error:  loss = mean((Xw - y)^2),      grad = (2/m) X^T (Xw - y)
* logistic:       loss = mean(softplus(z) - yz), grad = (1/m) X^T (sigma(z) - y)
  with z = Xw and labels in {0, 1}, and sigma(z) from one exp: with
  e = exp(-|z|), it is 1 / (1 + e) for z >= 0 and e / (1 + e) below.

When the spec enables a bias term, the final model coordinate is the
intercept, added to each score as its own term. ``stacked_gradient`` is the
trainer's gradient; the losses themselves, over a whole fleet's scores, are
``training.global_loss`` and ``training.training_accuracy``. The one-model
reference implementations the tests hold these to live with the tests.
"""

from __future__ import annotations

import numpy as np

from .config import LossSpec


def _sigmoid(z: np.ndarray) -> np.ndarray:
    e = np.exp(np.minimum(z, -z))  # exp(-|z|), but a NaN keeps its sign bit
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def stacked_gradient(
    weights: np.ndarray, features: np.ndarray, labels: np.ndarray, loss: LossSpec
) -> np.ndarray:
    """Each of k clients' mean-loss gradients, (k, p), from weights (k, p), features
    (k, m, d) and labels (k, m); a row's bits do not depend on the other rows."""
    d = loss.feature_dim
    z = np.matmul(features, weights[:, :d, None])[..., 0]
    if loss.bias:
        z += weights[:, d:]
    r = z - labels if loss.kind == "squared_error" else _sigmoid(z) - labels
    grad = np.empty_like(weights)
    np.matmul(r[:, None, :], features, out=grad[:, None, :d])
    if loss.bias:
        grad[:, d] = r.sum(axis=1)
    grad *= (2.0 if loss.kind == "squared_error" else 1.0) / features.shape[1]
    return grad
