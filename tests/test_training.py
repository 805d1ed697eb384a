import tracemalloc

import numpy as np
import pytest

from fedgate.errors import ValidationError
from fedgate.fl import (
    DatasetPartition,
    FederationConfig,
    LossSpec,
    ModelParameters,
    TrainingDivergedError,
    global_loss,
    local_train,
    run_federation,
    training_accuracy,
)
from fedgate.fl.losses import mean_loss, predict
from fedgate.fl.training import FleetScores


def make_config(**overrides):
    base = dict(
        total_rounds=1,
        total_clients=1,
        subset_size=1,
        local_epochs=1,
        learning_rate=0.1,
        loss=LossSpec(kind="squared_error", feature_dim=1),
        rng_seed=7,
    )
    base.update(overrides)
    return FederationConfig(**base)


def one_sample_partition():
    return DatasetPartition(client_id="c0", features=np.array([[1.0]]), labels=np.array([1.0]))


def test_zero_learning_rate_is_identity():
    config = make_config(learning_rate=0.0)
    model = ModelParameters.from_values([3.5])
    out = local_train(model, one_sample_partition(), config, round_seed=1)
    assert out == model


def test_hand_computed_single_step():
    # grad = 2(0*1 - 1)*1 = -2; w' = 0 - 1*(-2) = 2
    config = make_config(learning_rate=1.0)
    out = local_train(ModelParameters.zeros(1), one_sample_partition(), config, round_seed=1)
    assert out.tolist() == [2.0]


def test_two_epochs_compose_single_steps():
    part = DatasetPartition(
        client_id="c0",
        features=np.array([[1.0], [2.0], [-1.0]]),
        labels=np.array([1.0, 0.5, 0.0]),
    )
    model = ModelParameters.from_values([0.3])
    one = make_config(learning_rate=0.05)
    two = make_config(learning_rate=0.05, local_epochs=2)
    stepped_twice = local_train(local_train(model, part, one, 9), part, one, 9)
    assert local_train(model, part, two, 9) == stepped_twice


def test_input_model_unmodified_and_deterministic():
    rng = np.random.default_rng(3)
    part = DatasetPartition(
        client_id="a", features=rng.normal(size=(8, 2)), labels=rng.normal(size=8)
    )
    config = make_config(
        loss=LossSpec(kind="squared_error", feature_dim=2),
        local_epochs=3,
        batch_mode="minibatch",
        batch_size=3,
    )
    model = ModelParameters.from_values([0.1, -0.2])
    before = model.weights.copy()
    first = local_train(model, part, config, round_seed=42)
    second = local_train(model, part, config, round_seed=42)
    assert np.array_equal(model.weights, before)
    assert first == second
    # A different round seed shuffles minibatches differently.
    other = local_train(model, part, config, round_seed=43)
    assert first != other


def test_divergence_names_the_client():
    part = DatasetPartition(
        client_id="patient-7", features=np.array([[10.0]]), labels=np.array([0.0])
    )
    config = make_config(learning_rate=50.0, local_epochs=200)
    with pytest.raises(TrainingDivergedError) as err:
        local_train(ModelParameters.from_values([1.0]), part, config, round_seed=0)
    assert "patient-7" in str(err.value)
    assert err.value.client_id == "patient-7"


def pooled_mean_loss(model, partitions, spec):
    """Oracle: concatenate all samples and average sample-by-sample."""
    x = np.vstack([p.features for p in partitions])
    y = np.concatenate([p.labels for p in partitions])
    return mean_loss(model, x, y, spec)


def pooled_eval(model, partitions, spec):
    """(global_loss, training_accuracy) as ``run_federation`` computes them."""
    fleet = FleetScores(partitions, spec)
    scores = fleet.fill(model)
    return global_loss(scores, fleet.labels, spec), training_accuracy(scores, fleet.labels, spec)


def per_partition_accuracy(model, partitions, spec):
    """Oracle: ``predict`` on each partition, hits counted with the same rule."""
    correct = 0
    for p in partitions:
        outputs = predict(model, p.features, spec)
        if spec.kind == "logistic":
            hits = (outputs >= 0.5) == (p.labels >= 0.5)
        else:
            hits = np.abs(outputs - p.labels) <= 0.5
        correct += int(np.sum(hits))
    return correct / sum(p.size for p in partitions)


def test_global_loss_single_partition_equals_local():
    spec = LossSpec(kind="squared_error", feature_dim=1)
    part = one_sample_partition()
    model = ModelParameters.from_values([0.25])
    assert pooled_eval(model, [part], spec)[0] == mean_loss(
        model, part.features, part.labels, spec
    )


def test_global_loss_weighted_combination():
    # Sizes 1 and 3 with per-partition means a and b combine as (a + 3b)/4.
    spec = LossSpec(kind="squared_error", feature_dim=1)
    p1 = DatasetPartition(client_id="s", features=np.array([[1.0]]), labels=np.array([0.0]))
    p2 = DatasetPartition(
        client_id="t",
        features=np.array([[1.0], [2.0], [3.0]]),
        labels=np.array([1.0, 1.0, 1.0]),
    )
    model = ModelParameters.from_values([1.0])
    a = mean_loss(model, p1.features, p1.labels, spec)
    b = mean_loss(model, p2.features, p2.labels, spec)
    expected = (a + 3 * b) / 4
    loss, _ = pooled_eval(model, [p1, p2], spec)
    assert loss == pytest.approx(expected, abs=1e-15)
    assert loss == pytest.approx(pooled_mean_loss(model, [p1, p2], spec), abs=1e-12)


def test_global_loss_decomposition_random_partitions():
    rng = np.random.default_rng(11)
    spec = LossSpec(kind="logistic", feature_dim=3)
    for _ in range(20):
        parts = []
        for i in range(int(rng.integers(1, 5))):
            n = int(rng.integers(1, 9))
            parts.append(
                DatasetPartition(
                    client_id=f"c{i}",
                    features=rng.normal(size=(n, 3)),
                    labels=(rng.random(n) > 0.5).astype(float),
                )
            )
        model = ModelParameters(rng.normal(size=3))
        lhs, _ = pooled_eval(model, parts, spec)
        rhs = sum(
            p.size * mean_loss(model, p.features, p.labels, spec) for p in parts
        ) / sum(p.size for p in parts)
        assert abs(lhs - rhs) <= 1e-12
        assert abs(lhs - pooled_mean_loss(model, parts, spec)) <= 1e-12


@pytest.mark.parametrize("kind", ["logistic", "squared_error"])
@pytest.mark.parametrize("bias", [False, True])
def test_pooled_evaluation_matches_per_partition_oracle(kind, bias):
    rng = np.random.default_rng(29)
    spec = LossSpec(kind=kind, feature_dim=4, bias=bias)
    for _ in range(20):
        parts = []
        for i in range(int(rng.integers(1, 7))):
            n = int(rng.integers(1, 40))
            labels = (rng.random(n) > 0.5).astype(float)
            if kind == "squared_error":
                labels = labels + rng.normal(scale=0.4, size=n)
            parts.append(
                DatasetPartition(
                    client_id=f"c{i}", features=rng.normal(size=(n, 4)), labels=labels
                )
            )
        model = ModelParameters(rng.normal(size=spec.parameter_dim))
        loss, accuracy = pooled_eval(model, parts, spec)
        oracle = sum(
            p.size * mean_loss(model, p.features, p.labels, spec) for p in parts
        ) / sum(p.size for p in parts)
        assert abs(loss - oracle) <= 1e-12
        assert abs(loss - pooled_mean_loss(model, parts, spec)) <= 1e-12
        assert accuracy == per_partition_accuracy(model, parts, spec)


def test_zero_model_scores_every_sample_positive():
    # predict gives probability 0.5 to every sample, and 0.5 counts as positive.
    spec = LossSpec(kind="logistic", feature_dim=2, bias=True)
    labels = np.array([1.0, 0.0, 1.0, 1.0, 0.0])
    part = DatasetPartition(client_id="z", features=np.ones((5, 2)), labels=labels)
    model = ModelParameters.zeros(spec.parameter_dim)
    assert np.all(predict(model, part.features, spec) == 0.5)
    assert pooled_eval(model, [part], spec)[1] == 3 / 5 == per_partition_accuracy(model, [part], spec)


def test_evaluation_makes_no_pooled_copy_of_the_features():
    rng = np.random.default_rng(5)
    parts = [
        DatasetPartition(
            client_id=f"{i:03d}",
            features=rng.normal(size=(100, 20)),
            labels=(rng.random(100) > 0.5).astype(float),
        )
        for i in range(200)
    ]
    feature_bytes = sum(p.features.nbytes for p in parts)
    config = make_config(
        total_rounds=3,
        total_clients=200,
        subset_size=10,
        loss=LossSpec(kind="logistic", feature_dim=20, bias=True),
    )
    tracemalloc.start()
    try:
        run_federation(config, parts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < feature_bytes / 2


def test_learning_rate_negative_rejected_zero_allowed():
    with pytest.raises(ValidationError):
        make_config(learning_rate=-0.1)
    make_config(learning_rate=0.0)
