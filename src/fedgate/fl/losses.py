"""Loss functions, predictions, and analytic gradients.

Two kinds are supported, both reduced as the mean over samples so the
learning rate stays independent of partition size:

* squared_error:  loss = mean((Xw - y)^2),      grad = (2/m) X^T (Xw - y)
* logistic:       loss = mean(softplus(z) - yz), grad = (1/m) X^T (sigma(z) - y)
  with z = Xw and labels in {0, 1}.

When the spec enables a bias term, the final model coordinate is the
intercept, added to each score as its own term.

``stacked_gradient`` is the trainer's gradient. ``raw_scores``,
``predict``, ``mean_loss`` and ``gradient`` have no caller in the
package: they are the one-model reference implementations that the tests
hold ``FleetScores``, ``global_loss``, ``training_accuracy`` and
``stacked_gradient`` to, and are kept for that.
"""

from __future__ import annotations

import numpy as np

from ..errors import ValidationError
from .config import LossSpec
from .model import ModelParameters


def _checked_features(model: ModelParameters, features: np.ndarray, loss: LossSpec) -> np.ndarray:
    if model.dimension != loss.parameter_dim:
        raise ValidationError(
            f"model dimension {model.dimension} does not match parameter dimension "
            f"{loss.parameter_dim}"
        )
    x = np.asarray(features, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != loss.feature_dim:
        raise ValidationError(
            f"feature matrix has shape {x.shape}, expected (*, {loss.feature_dim})"
        )
    return x


def raw_scores(model: ModelParameters, features: np.ndarray, loss: LossSpec) -> np.ndarray:
    """Linear scores z = Xw (+ the bias weight) for each sample."""
    z = _checked_features(model, features, loss) @ model.weights[: loss.feature_dim]
    return z + model.weights[loss.feature_dim] if loss.bias else z


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def predict(model: ModelParameters, features: np.ndarray, loss: LossSpec) -> np.ndarray:
    """Model outputs: linear scores for squared_error, probabilities for logistic."""
    z = raw_scores(model, features, loss)
    return _sigmoid(z) if loss.kind == "logistic" else z


def mean_loss(
    model: ModelParameters, features: np.ndarray, labels: np.ndarray, loss: LossSpec
) -> float:
    """Mean-over-samples loss on one dataset."""
    z = raw_scores(model, features, loss)
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != (z.shape[0],):
        raise ValidationError(f"labels shape {y.shape} does not match {z.shape[0]} samples")
    if loss.kind == "squared_error":
        return float(np.mean((z - y) ** 2))
    # softplus(z) - y*z == -y*log(p) - (1-y)*log(1-p), evaluated stably
    return float(np.mean(np.logaddexp(0.0, z) - y * z))


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


def gradient(
    model: ModelParameters, features: np.ndarray, labels: np.ndarray, loss: LossSpec
) -> np.ndarray:
    """Analytic gradient of the mean loss: ``stacked_gradient`` for a cohort of one."""
    x = _checked_features(model, features, loss)
    y = np.asarray(labels, dtype=np.float64)
    return stacked_gradient(model.weights[None], x[None], y[None], loss)[0]
