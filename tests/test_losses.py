import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate.errors import ValidationError
from fedgate.fl import LossSpec
from fedgate.fl.model import ModelParameters

from support import gradient, mean_loss, predict


def finite_difference_gradient(model, x, y, spec, h=1e-6):
    """Central differences on the mean loss; independent of the analytic path."""
    base = model.weights
    grad = np.zeros_like(base)
    for d in range(base.shape[0]):
        up = base.copy()
        dn = base.copy()
        up[d] += h
        dn[d] -= h
        grad[d] = (
            mean_loss(ModelParameters(up), x, y, spec) - mean_loss(ModelParameters(dn), x, y, spec)
        ) / (2 * h)
    return grad


def test_squared_error_hand_value():
    # One sample x=[1], y=1, w=[0]: loss = (0-1)^2 = 1, grad = 2(0-1)*1 = -2
    spec = LossSpec(kind="squared_error", feature_dim=1)
    model = ModelParameters.zeros(1)
    x = np.array([[1.0]])
    y = np.array([1.0])
    assert mean_loss(model, x, y, spec) == 1.0
    assert gradient(model, x, y, spec) == pytest.approx([-2.0])


def test_interpolating_model_has_zero_loss():
    # Exact least-squares solution of a 2-point dataset: y = 2x + 1
    spec = LossSpec(kind="squared_error", feature_dim=1, bias=True)
    model = ModelParameters.from_values([2.0, 1.0])
    x = np.array([[0.0], [1.0]])
    y = np.array([1.0, 3.0])
    assert mean_loss(model, x, y, spec) == 0.0


def test_logistic_hand_value():
    spec = LossSpec(kind="logistic", feature_dim=1)
    model = ModelParameters.zeros(1)
    x = np.array([[1.0]])
    y = np.array([1.0])
    # z=0 -> p=0.5, loss = -log(0.5), grad = (0.5-1)*1
    assert mean_loss(model, x, y, spec) == pytest.approx(np.log(2.0))
    assert gradient(model, x, y, spec) == pytest.approx([-0.5])


def test_logistic_stable_at_extreme_scores():
    spec = LossSpec(kind="logistic", feature_dim=1)
    x = np.array([[1.0], [-1.0]])
    y = np.array([1.0, 0.0])
    big = ModelParameters.from_values([500.0])
    assert np.isfinite(mean_loss(big, x, y, spec))
    assert np.all(np.isfinite(gradient(big, x, y, spec)))
    probs = predict(big, x, spec)
    assert probs[0] == pytest.approx(1.0)
    assert probs[1] == pytest.approx(0.0)


@pytest.mark.parametrize("kind", ["squared_error", "logistic"])
@pytest.mark.parametrize("bias", [False, True])
def test_gradient_matches_finite_differences(kind, bias):
    # 100 random (model, sample) pairs per loss kind, 1e-5 relative error.
    rng = np.random.default_rng(2024)
    spec = LossSpec(kind=kind, feature_dim=3, bias=bias)
    for _ in range(50):
        model = ModelParameters(rng.normal(scale=0.8, size=spec.parameter_dim))
        x = rng.normal(size=(4, 3))
        y = (rng.random(4) > 0.5).astype(float) if kind == "logistic" else rng.normal(size=4)
        analytic = gradient(model, x, y, spec)
        numeric = finite_difference_gradient(model, x, y, spec)
        scale = np.maximum(np.abs(numeric), 1.0)
        assert np.all(np.abs(analytic - numeric) / scale < 1e-5)


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(["squared_error", "logistic"]),
    data=st.data(),
)
def test_loss_is_nonnegative(kind, data):
    dim = data.draw(st.integers(min_value=1, max_value=4))
    n = data.draw(st.integers(min_value=1, max_value=6))
    spec = LossSpec(kind=kind, feature_dim=dim)
    vals = st.floats(min_value=-5, max_value=5, allow_nan=False)
    w = np.array(data.draw(st.lists(vals, min_size=dim, max_size=dim)))
    x = np.array([data.draw(st.lists(vals, min_size=dim, max_size=dim)) for _ in range(n)])
    if kind == "logistic":
        y = np.array(data.draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    else:
        y = np.array(data.draw(st.lists(vals, min_size=n, max_size=n)))
    assert mean_loss(ModelParameters(w), x, y, spec) >= 0.0


def test_dimension_mismatch_rejected():
    spec = LossSpec(kind="squared_error", feature_dim=2)
    model = ModelParameters.zeros(3)
    with pytest.raises(ValidationError):
        mean_loss(model, np.ones((2, 2)), np.ones(2), spec)
    with pytest.raises(ValidationError):
        mean_loss(ModelParameters.zeros(2), np.ones((2, 3)), np.ones(2), spec)


def test_model_parameters_reject_nonfinite_and_stay_immutable():
    with pytest.raises(ValidationError):
        ModelParameters(np.array([1.0, np.nan]))
    with pytest.raises(ValidationError):
        ModelParameters(np.array([np.inf]))
    m = ModelParameters.from_values([1.0, 2.0])
    with pytest.raises(ValueError):
        m.weights[0] = 9.0
