import tracemalloc
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgate.errors import ValidationError
from fedgate.fl import (
    DatasetPartition,
    FederationConfig,
    LossSpec,
    SyntheticSpec,
    generate_partitions,
    run_federation,
)
from fedgate.fl.data import as_fleet
from fedgate.fl.losses import _sigmoid, stacked_gradient
from fedgate.fl.training import (
    DIVERGENCE_LIMIT,
    SIGMOID_HALF,
    FleetScores,
    TrainingDivergedError,
    global_loss,
    local_train,
    training_accuracy,
)
from fedgate.service.jobs import DataFilter, apply_filter

from support import mean_loss, per_partition_scores, predict, reference_sigmoid


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
    model = np.array([3.5])
    out = local_train(model, [one_sample_partition()], config, [1])
    assert np.array_equal(out, [model])


def test_hand_computed_single_step():
    # grad = 2(0*1 - 1)*1 = -2; w' = 0 - 1*(-2) = 2
    config = make_config(learning_rate=1.0)
    [out] = local_train(np.zeros(1), [one_sample_partition()], config, [1])
    assert out.tolist() == [2.0]


def test_two_epochs_compose_single_steps():
    part = DatasetPartition(
        client_id="c0",
        features=np.array([[1.0], [2.0], [-1.0]]),
        labels=np.array([1.0, 0.5, 0.0]),
    )
    model = np.array([0.3])
    one = make_config(learning_rate=0.05)
    two = make_config(learning_rate=0.05, local_epochs=2)
    stepped_twice = local_train(local_train(model, [part], one, [9])[0], [part], one, [9])
    assert np.array_equal(local_train(model, [part], two, [9]), stepped_twice)


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
    model = np.array([0.1, -0.2])
    before = model.copy()
    first = local_train(model, [part], config, [42])
    second = local_train(model, [part], config, [42])
    assert np.array_equal(model, before)
    assert np.array_equal(first, second)
    # A different round seed shuffles minibatches differently.
    other = local_train(model, [part], config, [43])
    assert not np.array_equal(first, other)


def test_divergence_names_the_client():
    part = DatasetPartition(
        client_id="patient-7", features=np.array([[10.0]]), labels=np.array([0.0])
    )
    config = make_config(learning_rate=50.0, local_epochs=200)
    with pytest.raises(TrainingDivergedError) as err:
        local_train(np.array([1.0]), [part], config, [0])
    assert "patient-7" in str(err.value)
    assert err.value.client_id == "patient-7"


def sequential_local_train(model, partition, config, round_seed):
    """Oracle: one client trained alone, as ``local_train`` did before cohorts, with
    its own gradient formula on a design matrix that carries a ones column for bias."""
    loss = config.loss
    x_all = partition.features
    if loss.bias:
        x_all = np.hstack([x_all, np.ones((partition.size, 1))])
    weights = model.copy()
    rng = (
        np.random.default_rng([round_seed & 0xFFFFFFFFFFFFFFFF])
        if config.batch_mode == "minibatch"
        else None
    )
    for _ in range(config.local_epochs):
        if config.batch_mode == "full":
            batches = [(x_all, partition.labels)]
        else:
            order = rng.permutation(partition.size)
            size = config.batch_size
            batches = [
                (x_all[order[i : i + size]], partition.labels[order[i : i + size]])
                for i in range(0, partition.size, size)
            ]
        for x, y in batches:
            z = x @ weights
            if loss.kind == "squared_error":
                grad = (2.0 / x.shape[0]) * (x.T @ (z - y))
            else:
                grad = (1.0 / x.shape[0]) * (x.T @ (reference_sigmoid(z) - y))
            if not np.all(np.isfinite(grad)):
                raise TrainingDivergedError(partition.client_id, "non-finite gradient")
            weights = weights - config.learning_rate * grad
        if not np.all(np.isfinite(weights)):
            raise TrainingDivergedError(partition.client_id, "non-finite weights")
        if np.max(np.abs(weights)) > DIVERGENCE_LIMIT:
            raise TrainingDivergedError(
                partition.client_id, f"weight magnitude exceeded {DIVERGENCE_LIMIT:g}"
            )
    return weights


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=1, max_value=300),
    epochs=st.integers(min_value=1, max_value=6),
    batch_size=st.integers(min_value=1, max_value=300),
)
def test_one_draw_per_round_is_the_per_epoch_permutation_stream(seed, n, epochs, batch_size):
    # The stream sequential_local_train draws: one permutation(n) per epoch.
    rng = np.random.default_rng([seed])
    stream = np.stack([rng.permutation(n) for _ in range(epochs)])
    drawn = np.random.default_rng([seed]).permuted(np.tile(np.arange(n), (epochs, 1)), axis=1)
    assert drawn.dtype == stream.dtype and np.array_equal(drawn, stream)
    # local_train hands stacked_gradient those rows in that order, batch by batch;
    # each label is its row's index, and a zero learning rate keeps every step finite.
    batches = []

    def recording(weights, features, labels, loss):
        batches.append(labels[0].astype(np.int64))
        return stacked_gradient(weights, features, labels, loss)

    part = DatasetPartition(client_id="c0", features=np.zeros((n, 1)), labels=np.arange(n, dtype=float))
    config = make_config(
        local_epochs=epochs, learning_rate=0.0, batch_mode="minibatch", batch_size=batch_size
    )
    with mock.patch("fedgate.fl.training.stacked_gradient", recording):
        local_train(np.zeros(1), [part], config, [seed])
    assert np.array_equal(np.concatenate(batches), stream.ravel())
    assert len(batches) == epochs * -(-n // batch_size)


def cohort_config(kind, bias, batch_size, **overrides):
    return make_config(
        loss=LossSpec(kind=kind, feature_dim=4, bias=bias),
        batch_mode="full" if batch_size is None else "minibatch",
        batch_size=batch_size,
        **overrides,
    )


def random_partitions(rng, sizes, kind):
    parts = []
    for i, n in enumerate(sizes):
        labels = (rng.random(n) > 0.5).astype(float)
        if kind == "squared_error":
            labels = labels + rng.normal(scale=0.4, size=n)
        parts.append(
            DatasetPartition(client_id=f"c{i:02d}", features=rng.normal(size=(n, 4)), labels=labels)
        )
    return parts


@pytest.mark.parametrize("kind", ["logistic", "squared_error"])
@pytest.mark.parametrize("bias", [False, True])
@pytest.mark.parametrize("batch_size", [None, 1, 4, 10])
def test_cohort_matches_per_client_oracle(kind, bias, batch_size):
    rng = np.random.default_rng(41)
    parts = random_partitions(rng, [3, 7, 10, 10, 13, 100], kind)
    config = cohort_config(kind, bias, batch_size, local_epochs=3, learning_rate=0.05)
    model = rng.normal(scale=0.5, size=config.loss.parameter_dim)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=len(parts))]
    cohort = local_train(model, parts, config, seeds)
    worst = max(
        np.max(np.abs(got - sequential_local_train(model, p, config, seed)))
        for p, seed, got in zip(parts, seeds, cohort)
    )
    assert worst <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "squared_error"]),
    bias=st.booleans(),
    batch_size=st.sampled_from([None, 1, 3, 8]),
    sizes=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=6),
    data_seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_client_update_does_not_depend_on_its_cohort(kind, bias, batch_size, sizes, data_seed, data):
    rng = np.random.default_rng(data_seed)
    parts = random_partitions(rng, sizes, kind)
    config = cohort_config(kind, bias, batch_size, local_epochs=2, learning_rate=0.05)
    model = rng.normal(scale=0.5, size=config.loss.parameter_dim)
    seeds = [int(s) for s in rng.integers(0, 2**64, size=len(parts), dtype=np.uint64)]
    order = data.draw(st.permutations(range(len(parts))))
    cohort = local_train(model, [parts[i] for i in order], config, [seeds[i] for i in order])
    for i, got in zip(order, cohort):
        [alone] = local_train(model, [parts[i]], config, [seeds[i]])
        assert np.array_equal(alone, got)


@pytest.mark.parametrize("late_rows", [1, 2])
def test_cohort_divergence_names_the_client_the_sequential_loop_names(late_rows):
    # w' = w (1 - x^2) per epoch (squared error, y = 0, lr 0.5, full batch): client
    # "b" grows 1e8-fold, passes 1e6 in epoch 1 and overflows by epoch 39, which
    # must not replace its first detail; the lower id "a" grows 9-fold and only
    # passes 1e6 in epoch 7. "a" trains in a separate stack when late_rows = 2.
    late = DatasetPartition(
        client_id="a", features=np.full((late_rows, 1), np.sqrt(10.0)), labels=np.zeros(late_rows)
    )
    early = DatasetPartition(client_id="b", features=np.array([[1e4]]), labels=np.array([0.0]))
    config = make_config(learning_rate=0.5, local_epochs=40)
    model = np.array([1.0])
    with pytest.raises(TrainingDivergedError) as expected:
        for part in (late, early):
            sequential_local_train(model, part, config, 0)
    for cohort in ([late, early], [early, late]):
        with pytest.raises(TrainingDivergedError) as err:
            local_train(model, cohort, config, [0, 0])
        assert err.value.client_id == expected.value.client_id == "a"
        assert str(err.value) == str(expected.value)
    with pytest.raises(TrainingDivergedError) as alone:
        local_train(model, [early], config, [0])
    assert (alone.value.client_id, str(alone.value).endswith("exceeded 1e+06")) == ("b", True)


def test_run_federation_trains_each_round_in_one_call(monkeypatch):
    import fedgate.fl.federation as federation

    calls = []

    def counting(model, partitions, config, round_seeds):
        calls.append([p.client_id for p in partitions])
        return local_train(model, partitions, config, round_seeds)

    monkeypatch.setattr(federation, "local_train", counting)
    rng = np.random.default_rng(8)
    parts = random_partitions(rng, [5, 9, 5, 12, 9], "logistic")
    config = cohort_config("logistic", True, 4, total_rounds=4, total_clients=5, subset_size=3)
    run_federation(config, parts)
    assert len(calls) == 4
    assert all(ids == sorted(ids) and len(ids) == 3 for ids in calls)


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
    model = np.array([0.25])
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
    model = np.array([1.0])
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
        model = rng.normal(size=3)
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
        model = rng.normal(size=spec.parameter_dim)
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
    model = np.zeros(spec.parameter_dim)
    assert np.all(predict(model, part.features, spec) == 0.5)
    assert pooled_eval(model, [part], spec)[1] == 3 / 5 == per_partition_accuracy(model, [part], spec)


def test_accuracy_threshold_is_exactly_p_at_least_one_half():
    # _sigmoid returns exactly 0.5 down to z = -1e-17, and less from -5.6e-17 on.
    spec = LossSpec(kind="logistic", feature_dim=1)
    scores = np.array([0.0, -0.0, -1e-17, -5.6e-17, -1e-15])
    assert _sigmoid(scores).tolist()[:3] == [0.5, 0.5, 0.5]
    assert np.all(_sigmoid(scores[3:]) < 0.5)
    for i, z in enumerate(scores):
        positive = i < 3
        one = np.array([z])
        assert training_accuracy(one, np.array([1.0]), spec) == float(positive)
        assert training_accuracy(one, np.array([0.0]), spec) == float(not positive)
    assert training_accuracy(scores, np.ones(5), spec) == 3 / 5


@pytest.mark.parametrize("n", [1, 1000])
def test_sigmoid_half_is_the_least_score_sigmoid_rounds_to_one_half(n):
    # numpy's exp runs 1,000 samples through its SIMD body and 1 through its
    # remainder lanes; a numpy whose exp moves this boundary fails here.
    assert np.all(_sigmoid(np.full(n, SIGMOID_HALF)) >= 0.5)
    assert np.all(_sigmoid(np.full(n, np.nextafter(SIGMOID_HALF, -np.inf))) < 0.5)


EDGE_SCORES = [0.0, -0.0, 745.0, -745.0, SIGMOID_HALF]
EDGE_SCORES += [np.nextafter(SIGMOID_HALF, to) for to in (-np.inf, np.inf)]
TINY_SCORES = [sign * 10.0**-e for e in range(17, 301) for sign in (1.0, -1.0)]


@settings(max_examples=300, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.one_of(
                st.sampled_from(EDGE_SCORES), st.sampled_from(TINY_SCORES), st.floats(-745.0, 745.0)
            ),
            st.sampled_from([0.0, 1.0]),
        ),
        min_size=1,
        max_size=40,
    )
)
@example(pairs=[(5.0313109891246635, 1.0)])  # one ulp of softplus, 1,024 ulps of the loss
def test_logistic_reductions_match_logaddexp_and_sigmoid(pairs):
    spec = LossSpec(kind="logistic", feature_dim=1)
    z, y = (np.array(column) for column in zip(*pairs))
    softplus = np.logaddexp(0.0, z)
    # The two exps differ by an ulp at times, and y*z can cancel most of
    # softplus, so the drift is counted in ulps of the terms, not of their difference.
    drift = abs(global_loss(z, y, spec) - np.mean(softplus - y * z))
    assert drift <= 4 * np.spacing(np.mean(softplus + np.abs(y * z)))
    hits = np.count_nonzero((_sigmoid(z) >= 0.5) == (y >= 0.5))
    assert training_accuracy(z, y, spec) == hits / len(z)


def locked(array):
    array.flags.writeable = False
    return array


@st.composite
def mixed_fleets(draw):
    """Partitions of one feature width drawn from every layout a fleet can have:
    consecutive row views of a locked pool, views with gaps between them, views of
    a second pool, independent arrays and ``select_features`` copies; ids are
    dealt out in a drawn order, so sorting by id also reorders pool views."""
    d = draw(st.sampled_from([1, 3, 8, 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pools = {kind: (locked(rng.normal(size=(64, d))), locked(rng.random(64))) for kind in ("a", "b")}
    wide = DatasetPartition("wide", rng.normal(size=(64, d + 2)), rng.random(64))
    names = list(wide.feature_names)
    rng.shuffle(names)
    cursor = {"a": 0, "b": 0, "wide": 0}
    features_labels = []
    piece = st.tuples(
        st.sampled_from(["a", "b", "own", "wide"]), st.integers(1, 9), st.sampled_from([0, 0, 1, 3])
    )
    for kind, size, gap in draw(st.lists(piece, min_size=1, max_size=14)):
        start = cursor.get(kind, 0) + gap
        if kind == "own" or start + size > 64:
            features_labels.append((rng.normal(size=(size, d)), rng.random(size)))
            continue
        cursor[kind] = start + size
        if kind == "wide":
            rows = slice(start, start + size)
            part = DatasetPartition("w", wide.features[rows], wide.labels[rows], wide.feature_names)
            (part,) = as_fleet([replace(part)]).select_features(tuple(names[:d]))
            features_labels.append((part.features, part.labels))
        else:
            x, y = pools[kind]
            features_labels.append((x[start : start + size], y[start : start + size]))
    ids = draw(st.permutations(range(len(features_labels))))
    parts = [DatasetPartition(f"{i:03d}", x, y) for i, (x, y) in zip(ids, features_labels)]
    return sorted(parts, key=lambda p: p.client_id), d


@settings(max_examples=200, deadline=None)
@given(fleet=mixed_fleets(), bias=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fleet_scores_keep_the_bits_of_one_matmul_per_partition(fleet, bias, seed):
    parts, d = fleet
    loss = LossSpec(kind="logistic", feature_dim=d, bias=bias)
    scores = FleetScores(parts, loss)
    rng = np.random.default_rng(seed)
    assert scores.labels.tobytes() == np.concatenate([p.labels for p in parts]).tobytes()
    for _ in range(2):  # refilled in place
        model = rng.normal(size=loss.parameter_dim)
        assert scores.fill(model).tobytes() == per_partition_scores(model, parts, loss).tobytes()


@st.composite
def pool_fleets(draw):
    """Partitions of one ``generate_partitions`` pool as jobs select them: pieces of
    every-k-th clients from an offset, adjacent ranges, ``max_samples_per_client``
    caps of either, shuffled subsets and stand-alone copies, one after another."""
    n, d = draw(st.integers(1, 16)), draw(st.sampled_from([1, 3, 20]))
    spec = SyntheticSpec(n_clients=40, samples_per_client=n, feature_dim=d, separability=0.5, seed=draw(st.integers(0, 99)))
    pool, _ = generate_partitions(spec)
    fleet = []
    for kind in draw(st.lists(st.sampled_from(["strided", "range", "shuffled", "own"]), min_size=1, max_size=4)):
        if kind == "strided":
            k = draw(st.integers(1, 9))
            piece = pool[draw(st.integers(0, k - 1)) :: k]
        elif kind == "range":
            start = draw(st.integers(0, 39))
            piece = pool[start : draw(st.integers(start + 1, 40))]
        elif kind == "shuffled":
            piece = [pool[i] for i in draw(st.lists(st.integers(0, 39), min_size=1, max_size=12, unique=True))]
        else:
            piece = [replace(p, features=p.features.copy(), labels=p.labels.copy()) for p in pool[:3]]
        cap = draw(st.none() | st.integers(1, 13))
        if cap is not None:
            piece = [replace(p, features=p.features[:cap], labels=p.labels[:cap]) for p in piece]
        fleet.extend(piece)
    return fleet, d


@settings(max_examples=200, deadline=None)
@given(fleet=pool_fleets(), bias=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fleet_scores_of_pool_selections_keep_per_partition_bits(fleet, bias, seed):
    parts, d = fleet
    loss = LossSpec(kind="logistic", feature_dim=d, bias=bias)
    model = np.random.default_rng(seed).normal(size=loss.parameter_dim)
    assert FleetScores(parts, loss).fill(model).tobytes() == per_partition_scores(model, parts, loss).tobytes()


def test_an_every_tenth_client_filter_of_the_bench_fleet_is_one_run():
    spec = SyntheticSpec(
        n_clients=1000, samples_per_client=100, feature_dim=20, separability=0.5, label_skew=0.6, label_noise=0.05, seed=1
    )
    pool, _ = generate_partitions(spec)
    loss = LossSpec(kind="logistic", feature_dim=20, bias=True)
    for offset in (0, 3, 9):
        chosen = apply_filter(pool, DataFilter(client_ids=tuple(p.client_id for p in pool[offset::10])))
        assert len(chosen) == 100 and len(FleetScores(chosen, loss)._runs) == 1
    capped = apply_filter(pool, DataFilter(max_samples_per_client=7))
    assert len(FleetScores(capped, loss)._runs) == 1


class MatmulCounter:
    """numpy as ``fedgate.fl.training`` sees it, counting the matmuls it makes."""

    def __init__(self):
        self.calls = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def matmul(self, *args, **kwargs):
        self.calls += 1
        return np.matmul(*args, **kwargs)


def test_a_generated_fleet_is_scored_with_one_matmul_per_round(monkeypatch):
    import fedgate.fl.training as training

    counter = MatmulCounter()
    monkeypatch.setattr(training, "np", counter)
    spec = SyntheticSpec(n_clients=30, samples_per_client=12, feature_dim=3, separability=0.5, seed=2)
    parts, _ = generate_partitions(spec)
    config = make_config(
        total_rounds=4,
        total_clients=30,
        subset_size=5,
        loss=LossSpec(kind="logistic", feature_dim=3, bias=True),
    )
    run_federation(config, parts[::-1])
    assert counter.calls == 4


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


@st.composite
def filtered_pools(draw):
    """A generated pool through a job's data filter: a client subset, a feature
    subset in a drawn order and a sample cap, each drawn or left out."""
    n, d = draw(st.integers(1, 12)), draw(st.sampled_from([1, 3, 8]))
    spec = SyntheticSpec(n_clients=30, samples_per_client=n, feature_dim=d, separability=0.5, seed=draw(st.integers(0, 99)))
    pool, _ = generate_partitions(spec)
    names = tuple(f"x{i}" for i in range(d))
    chosen = draw(st.none() | st.lists(st.sampled_from([p.client_id for p in pool]), min_size=1, max_size=30, unique=True))
    features = draw(st.none() | st.lists(st.sampled_from(names), min_size=1, max_size=d, unique=True))
    cap = draw(st.none() | st.integers(1, 14))
    data_filter = DataFilter(
        client_ids=chosen and tuple(chosen), feature_names=features and tuple(features), max_samples_per_client=cap
    )
    return apply_filter(pool, data_filter), len(features or names)


@settings(max_examples=150, deadline=None)
@given(fleet=filtered_pools(), bias=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_a_filtered_pool_stays_one_pool_and_keeps_per_partition_bits(fleet, bias, seed):
    fleet, d = fleet
    parts = list(fleet)
    assert len(fleet.pools) == 1 and all(p.features.base is fleet.pools[0][0] for p in parts)
    loss = LossSpec(kind="logistic", feature_dim=d, bias=bias)
    model = np.random.default_rng(seed).normal(size=loss.parameter_dim)
    scores = FleetScores(fleet, loss)
    assert scores.labels.tobytes() == np.concatenate([p.labels for p in parts]).tobytes()
    assert scores.fill(model).tobytes() == per_partition_scores(model, parts, loss).tobytes()


@settings(max_examples=60, deadline=None)
@given(fleet=filtered_pools(), batch_size=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2**32 - 1))
def test_a_cohort_taken_from_a_pool_trains_as_its_copies_do(fleet, batch_size, seed):
    fleet, d = fleet
    config = make_config(
        loss=LossSpec(kind="logistic", feature_dim=d, bias=True),
        batch_mode="full" if batch_size is None else "minibatch",
        batch_size=batch_size,
        local_epochs=2,
        learning_rate=0.3,
    )
    rng = np.random.default_rng(seed)
    model = rng.normal(scale=0.5, size=config.loss.parameter_dim)
    seeds = [int(s) for s in rng.integers(0, 2**63, size=len(fleet))]
    copies = [DatasetPartition(p.client_id, p.features.copy(), p.labels.copy()) for p in fleet]
    assert np.array_equal(local_train(model, fleet, config, iter(seeds)), local_train(model, copies, config, seeds))


def test_a_feature_filter_of_the_bench_fleet_is_one_run():
    spec = SyntheticSpec(
        n_clients=1000, samples_per_client=100, feature_dim=20, separability=0.5, label_skew=0.6, label_noise=0.05, seed=1
    )
    pool, _ = generate_partitions(spec)
    names = tuple(f"x{i}" for i in range(0, 20, 2))
    for data_filter in (DataFilter(feature_names=names), DataFilter(feature_names=names, max_samples_per_client=7)):
        fleet = apply_filter(pool, data_filter)
        assert len(FleetScores(fleet, LossSpec(kind="logistic", feature_dim=10, bias=True))._runs) == 1
