import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedgate.errors import ValidationError
from fedgate.fl import LossSpec
from fedgate.fl.training import SIGMOID_HALF

from support import gradient, mean_loss, predict, reference_sigmoid, sigmoid


def finite_difference_gradient(model, x, y, spec, h=1e-6):
    """Central differences on the mean loss; independent of the analytic path."""
    grad = np.zeros_like(model)
    for d in range(model.shape[0]):
        up = model.copy()
        dn = model.copy()
        up[d] += h
        dn[d] -= h
        grad[d] = (mean_loss(up, x, y, spec) - mean_loss(dn, x, y, spec)) / (2 * h)
    return grad


def test_squared_error_hand_value():
    # One sample x=[1], y=1, w=[0]: loss = (0-1)^2 = 1, grad = 2(0-1)*1 = -2
    spec = LossSpec(kind="squared_error", feature_dim=1)
    model = np.zeros(1)
    x = np.array([[1.0]])
    y = np.array([1.0])
    assert mean_loss(model, x, y, spec) == 1.0
    assert gradient(model, x, y, spec) == pytest.approx([-2.0])


def test_interpolating_model_has_zero_loss():
    # Exact least-squares solution of a 2-point dataset: y = 2x + 1
    spec = LossSpec(kind="squared_error", feature_dim=1, bias=True)
    model = np.array([2.0, 1.0])
    x = np.array([[0.0], [1.0]])
    y = np.array([1.0, 3.0])
    assert mean_loss(model, x, y, spec) == 0.0


def test_logistic_hand_value():
    spec = LossSpec(kind="logistic", feature_dim=1)
    model = np.zeros(1)
    x = np.array([[1.0]])
    y = np.array([1.0])
    # z=0 -> p=0.5, loss = -log(0.5), grad = (0.5-1)*1
    assert mean_loss(model, x, y, spec) == pytest.approx(np.log(2.0))
    assert gradient(model, x, y, spec) == pytest.approx([-0.5])


def test_logistic_stable_at_extreme_scores():
    spec = LossSpec(kind="logistic", feature_dim=1)
    x = np.array([[1.0], [-1.0]])
    y = np.array([1.0, 0.0])
    big = np.array([500.0])
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
        model = rng.normal(scale=0.8, size=spec.parameter_dim)
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
    assert mean_loss(w, x, y, spec) >= 0.0


def test_dimension_mismatch_rejected():
    spec = LossSpec(kind="squared_error", feature_dim=2)
    model = np.zeros(3)
    with pytest.raises(ValidationError):
        mean_loss(model, np.ones((2, 2)), np.ones(2), spec)
    with pytest.raises(ValidationError):
        mean_loss(np.zeros(2), np.ones((2, 3)), np.ones(2), spec)


def _nan(bits: int) -> float:
    return float(np.array(bits, dtype=np.uint64).view(np.float64))


SIGMOID_EDGES = [0.0, -0.0, 745.0, -745.0, np.inf, -np.inf, SIGMOID_HALF]
SIGMOID_EDGES += [np.nextafter(SIGMOID_HALF, to) for to in (-np.inf, np.inf)]
SIGMOID_EDGES += [5e-324, -5e-324, 2.2250738585072e-308, -2.2250738585072e-308]
NAN_BITS = (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF8000000000123, 0xFFF0000000000001)
SIGMOID_EDGES += [_nan(bits) for bits in NAN_BITS]  # both signs, a payload, a signalling NaN


@settings(max_examples=300, deadline=None)
@given(
    z=hnp.arrays(
        np.float64,
        hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=40),
        elements=st.one_of(
            st.sampled_from(SIGMOID_EDGES), st.floats(width=64), st.floats(-800.0, 800.0)
        ),
    )
)
@example(z=np.array(SIGMOID_EDGES * 5))  # past the SIMD width, so every lane sees each edge
def test_sigmoid_returns_the_reference_bytes(z):
    got, want = sigmoid(z), reference_sigmoid(z)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
