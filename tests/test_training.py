import os
import time
import tracemalloc
import warnings
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgate.errors import FedGateError, ValidationError
from fedgate.fl import (
    FederationConfig,
    LossSpec,
    SyntheticSpec,
    generate_partitions,
    run_federation,
)
from fedgate.fl.data import as_fleet
from fedgate.fl.losses import StackedGradient
from fedgate.fl.training import (
    DIVERGENCE_LIMIT,
    SIGMOID_HALF,
    SPLIT_ROWS,
    FleetScores,
    epoch_orders,
    global_loss,
    local_train,
    training_accuracy,
)
from fedgate.service.jobs import DataFilter, apply_filter

from support import (
    diverged,
    make_partition,
    mean_loss,
    per_partition_scores,
    predict,
    reference_epoch_orders,
    reference_local_train,
    reference_sigmoid,
    run_under_blas_threads,
    sigmoid,
)


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
    return make_partition(client_id="c0", features=np.array([[1.0]]), labels=np.array([1.0]))


def test_zero_learning_rate_is_identity():
    config = make_config(learning_rate=0.0)
    model = np.array([3.5])
    out = local_train(model, as_fleet([one_sample_partition()]), config, [1], {})
    assert np.array_equal(out, [model])


def test_hand_computed_single_step():
    # grad = 2(0*1 - 1)*1 = -2; w' = 0 - 1*(-2) = 2
    config = make_config(learning_rate=1.0)
    [out] = local_train(np.zeros(1), as_fleet([one_sample_partition()]), config, [1], {})
    assert out.tolist() == [2.0]


def test_two_epochs_compose_single_steps():
    part = make_partition(
        client_id="c0",
        features=np.array([[1.0], [2.0], [-1.0]]),
        labels=np.array([1.0, 0.5, 0.0]),
    )
    model = np.array([0.3])
    one = make_config(learning_rate=0.05)
    two = make_config(learning_rate=0.05, local_epochs=2)
    cohort = as_fleet([part])
    stepped_twice = local_train(local_train(model, cohort, one, [9], {})[0], cohort, one, [9], {})
    assert np.array_equal(local_train(model, cohort, two, [9], {}), stepped_twice)


def test_input_model_unmodified_and_deterministic():
    rng = np.random.default_rng(3)
    part = make_partition(
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
    first = local_train(model, as_fleet([part]), config, [42], {})
    second = local_train(model, as_fleet([part]), config, [42], {})
    assert np.array_equal(model, before)
    assert np.array_equal(first, second)
    # A different round seed shuffles minibatches differently.
    other = local_train(model, as_fleet([part]), config, [43], {})
    assert not np.array_equal(first, other)


def test_divergence_names_the_client():
    part = make_partition(
        client_id="patient-7", features=np.array([[10.0]]), labels=np.array([0.0])
    )
    config = make_config(learning_rate=50.0, local_epochs=200)
    with pytest.raises(FedGateError, match="^training diverged on client 'patient-7': "):
        local_train(np.array([1.0]), as_fleet([part]), config, [0], {})


def test_a_client_exactly_at_the_limit_is_not_named_beside_one_past_it():
    # squared error, full batch, lr 0.5 from w = 0 on x = 1: one epoch ends at w = y,
    # so in one stack "a" ends exactly at DIVERGENCE_LIMIT and "b" ten times past it
    cohort = [
        make_partition(client_id=cid, features=np.array([[1.0]]), labels=np.array([y]))
        for cid, y in (("a", DIVERGENCE_LIMIT), ("b", 10 * DIVERGENCE_LIMIT))
    ]
    config = make_config(learning_rate=0.5)
    with pytest.raises(FedGateError, match="^training diverged on client 'b': "):
        local_train(np.array([0.0]), as_fleet(cohort), config, [0, 0], {})
    assert local_train(np.array([0.0]), as_fleet(cohort[:1]), config, [0], {}).tolist() == [[DIVERGENCE_LIMIT]]


def sequential_local_train(model, partition, config, round_seed):
    """Oracle: one client trained alone, as ``local_train`` did before cohorts, with
    its own gradient formula on a design matrix that carries a ones column for bias."""
    loss = config.loss
    x_all = partition.features
    if loss.bias:
        x_all = np.hstack([x_all, np.ones((partition.size, 1))])
    weights = model.copy()
    if config.batch_mode == "minibatch":
        orders = reference_epoch_orders(round_seed, config.local_epochs, partition.size)
    for epoch in range(config.local_epochs):
        if config.batch_mode == "full":
            batches = [(x_all, partition.labels)]
        else:
            order = np.array(orders[epoch])
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
                raise diverged(partition.client_id, "non-finite gradient")
            weights = weights - config.learning_rate * grad
        if not np.all(np.isfinite(weights)):
            raise diverged(partition.client_id, "non-finite weights")
        if np.max(np.abs(weights)) > DIVERGENCE_LIMIT:
            raise diverged(partition.client_id, f"weight magnitude exceeded {DIVERGENCE_LIMIT:g}")
    return weights


class LabelRecorder:
    """numpy as ``fedgate.fl.losses`` sees it, keeping client 0's labels of each
    squared-error residual it takes (``np.subtract(scores, labels, out=...)``)."""

    def __init__(self):
        self.batches = []

    def __getattr__(self, name):
        return getattr(np, name)

    def subtract(self, scores, labels, out):
        self.batches.append(labels[0].astype(np.int64))
        return np.subtract(scores, labels, out=out)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    n=st.integers(min_value=1, max_value=300),
    epochs=st.integers(min_value=1, max_value=6),
    batch_size=st.integers(min_value=1, max_value=300),
)
def test_one_draw_per_round_is_the_per_epoch_permutation_stream(seed, n, epochs, batch_size):
    # The stream sequential_local_train draws: one SplitMix64 key sort per epoch.
    stream = np.array(reference_epoch_orders(seed, epochs, n))
    drawn = epoch_orders(np.array([seed], dtype=np.uint64), epochs, n)[0]
    assert drawn.dtype == stream.dtype and np.array_equal(drawn, stream)
    # local_train's gradient subtracts those rows' labels in that order, batch by
    # batch; each label is its row's index, and a zero learning rate keeps every step finite.
    recorder = LabelRecorder()
    part = make_partition(client_id="c0", features=np.zeros((n, 1)), labels=np.arange(n, dtype=float))
    config = make_config(
        local_epochs=epochs, learning_rate=0.0, batch_mode="minibatch", batch_size=batch_size
    )
    with mock.patch("fedgate.fl.losses.np", recorder):
        local_train(np.zeros(1), as_fleet([part]), config, [seed], {})
    batches = recorder.batches
    assert np.array_equal(np.concatenate(batches), stream.ravel())
    assert len(batches) == epochs * -(-n // batch_size)


@settings(max_examples=60, deadline=None)
@given(
    seeds=st.lists(st.integers(min_value=0, max_value=2**64 - 1), min_size=1, max_size=5),
    n=st.integers(min_value=1, max_value=300),
    epochs=st.integers(min_value=1, max_value=6),
)
@example(seeds=[0, 2**64 - 1], n=1, epochs=1)
@example(seeds=[2**63], n=2**9 + 1, epochs=2)  # the least n with b = 10 low bits
def test_every_epoch_order_is_a_permutation_of_the_rows(seeds, n, epochs):
    orders = epoch_orders(np.array(seeds, dtype=np.uint64), epochs, n)
    assert orders.shape == (len(seeds), epochs, n) and orders.dtype == np.int64
    assert (np.sort(orders, axis=-1) == np.arange(n)).all()


def test_seeds_near_two_to_the_64_raise_no_overflow_warning():
    # numpy warns on integer scalar overflow, and raises under "raise"; arrays wrap silently.
    seeds = [2**64 - 1, 2**64 - 2, 2**64 - 0x9E3779B97F4A7C15, 2**63]
    part = make_partition(client_id="c0", features=np.zeros((7, 1)), labels=np.zeros(7))
    config = make_config(local_epochs=3, batch_mode="minibatch", batch_size=2)
    with warnings.catch_warnings(), np.errstate(all="raise"):
        warnings.simplefilter("error")
        orders = epoch_orders(np.array(seeds, dtype=np.uint64), 3, 7)
        for seed in seeds:
            local_train(np.zeros(1), as_fleet([part]), config, [seed], {})
    assert orders.tolist() == [reference_epoch_orders(s, 3, 7) for s in seeds]


def trained_orders(parts, config, seeds) -> dict[int, list[list[int]]]:
    """Each client's epoch orders as ``local_train`` gathers them, by client
    index: the label of client c's row j is 1000 c + j, so the gathered labels
    name both the client and the order."""
    seen: dict[int, list[list[int]]] = {}
    gather = StackedGradient.gather

    def recording_gather(self, pool_x, pool_y, rows):
        for labels in pool_y[rows].astype(np.int64).tolist():
            seen.setdefault(labels[0] // 1000, []).append([label % 1000 for label in labels])
        gather(self, pool_x, pool_y, rows)

    with mock.patch.object(StackedGradient, "gather", recording_gather):
        local_train(np.zeros(1), as_fleet(parts), config, seeds, {})
    return seen


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=6),
    epochs=st.integers(min_value=1, max_value=4),
    batch_size=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_a_client_draws_the_same_orders_alone_and_in_a_cohort_of_mixed_sizes(sizes, epochs, batch_size, data):
    seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=len(sizes), max_size=len(sizes)))
    parts = [
        make_partition(f"c{c}", np.zeros((n, 1)), 1000.0 * c + np.arange(n)) for c, n in enumerate(sizes)
    ]
    config = make_config(local_epochs=epochs, learning_rate=0.0, batch_mode="minibatch", batch_size=batch_size)
    in_cohort = trained_orders(parts, config, seeds)
    for c, (part, seed) in enumerate(zip(parts, seeds)):
        expected = reference_epoch_orders(seed, epochs, part.size)
        assert in_cohort[c] == trained_orders([part], config, [seed])[c] == expected


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
            make_partition(client_id=f"c{i:02d}", features=rng.normal(size=(n, 4)), labels=labels)
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
    cohort = local_train(model, as_fleet(parts), config, seeds, {})
    worst = max(
        np.max(np.abs(got - sequential_local_train(model, p, config, seed)))
        for p, seed, got in zip(parts, seeds, cohort)
    )
    assert worst <= 1e-12


def outcome(train, model, parts, config, seeds):
    """The bytes ``train`` returns, or the text of the divergence it raises."""
    try:
        return train(model, parts, config, seeds).tobytes()
    except FedGateError as err:
        return str(err)


@settings(max_examples=300, deadline=None)
@given(
    kind=st.sampled_from(["logistic", "squared_error"]),
    bias=st.booleans(),
    batch_size=st.none() | st.integers(1, 5),
    sizes=st.lists(st.integers(1, 12), min_size=1, max_size=6),
    scales=st.lists(st.sampled_from([1.0, 1.0, 30.0, 1e80, 1e160]), min_size=6, max_size=6),
    learning_rate=st.sampled_from([0.0, 0.05, 0.5, 3.0]),
    epochs=st.integers(1, 4),
    data=st.data(),
)
def test_local_train_returns_the_bytes_or_the_error_of_the_reference(
    kind, bias, batch_size, sizes, scales, learning_rate, epochs, data
):
    # Sizes up to 12 under batches up to 5 give short last batches; large feature
    # scales and learning rates make rows diverge, in any epoch and at any step.
    config = cohort_config(kind, bias, batch_size, local_epochs=epochs, learning_rate=learning_rate)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    ids = data.draw(st.permutations(range(len(sizes))))
    parts = [
        make_partition(f"c{i}", rng.normal(size=(n, 4)) * scale, (rng.random(n) > 0.5).astype(float))
        for i, n, scale in zip(ids, sizes, scales)
    ]
    model = rng.normal(scale=0.5, size=config.loss.parameter_dim)
    seeds = [int(s) for s in rng.integers(0, 2**64, size=len(parts), dtype=np.uint64)]
    args = model, as_fleet(parts), config, seeds
    assert outcome(lambda *a: local_train(*a, {}), *args) == outcome(reference_local_train, *args)


@pytest.mark.parametrize("names", [("a", "b"), ("b", "a")], ids=["exceeding-client-first", "overflowing-client-first"])
def test_a_failed_epoch_is_replayed_from_its_start_with_every_step_checked(names):
    # Squared error, y = 0, lr 0.5, one row a step, two steps an epoch: each step
    # scales a weight by 1 - x^2, from 1e-300. At x^2 = 1e150 a client ends epoch 1
    # at 1 and epoch 2 at 1e300, past 1e6 but finite; from there its gradient would
    # overflow. At x^2 = 10^152.5 a client ends epoch 1 at 1e5, and its gradient
    # overflows at epoch 2's second step. The error names whichever holds the lower
    # id, with the reference's detail: not the "non-finite weights" the epoch's
    # end finds, nor the "non-finite gradient" a replay from that end would find.
    config = cohort_config("squared_error", False, 1, local_epochs=2, learning_rate=0.5)
    exceeding = make_partition(names[0], np.full((2, 4), 1e75 / 2), np.zeros(2))
    overflowing = make_partition(names[1], np.full((2, 4), 10**76.25 / 2), np.zeros(2))
    args = np.full(4, 1e-300), as_fleet([exceeding, overflowing]), config, [0, 0]
    expected = "weight magnitude exceeded 1e+06" if names[0] == "a" else "non-finite gradient"
    assert outcome(reference_local_train, *args) == f"training diverged on client 'a': {expected}"
    assert outcome(lambda *a: local_train(*a, {}), *args) == outcome(reference_local_train, *args)


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
    cohort = local_train(model, as_fleet([parts[i] for i in order]), config, [seeds[i] for i in order], {})
    for i, got in zip(order, cohort):
        [alone] = local_train(model, as_fleet([parts[i]]), config, [seeds[i]], {})
        assert np.array_equal(alone, got)


@pytest.mark.parametrize("kind, bias", [("logistic", True), ("squared_error", False)])
@pytest.mark.parametrize("batch_size", [None, 3], ids=["full-batch", "minibatch"])
def test_a_held_stack_trains_each_round_to_the_bytes_of_a_fresh_one(kind, bias, batch_size):
    # Rounds of unequal sizes (5, 9, 12 rows): the third clamps K after a client
    # is lost, the fourth diverges on c06 and leaves non-finite or unbounded
    # weights in its stacks, and the fifth reuses those stacks. Every reused stack must start
    # from the round's model, and no update may alias what the holder keeps.
    rng = np.random.default_rng(52)
    parts = random_partitions(rng, [5, 9, 5, 12, 9, 5], kind)
    parts.append(make_partition("c06", rng.normal(size=(5, 4)) * 1e160, np.ones(5)))
    config = cohort_config(kind, bias, batch_size, local_epochs=2, learning_rate=0.05)
    rounds = [[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5], [0, 1, 3, 4], [1, 2, 4, 6], [1, 2, 4, 5], [0, 2, 3, 5]]
    stacks, held_before, kept = {}, {}, []
    for members in rounds:
        cohort = as_fleet([parts[i] for i in members])
        model = rng.normal(scale=0.5, size=config.loss.parameter_dim)
        seeds = [int(s) for s in rng.integers(0, 2**64, size=len(members), dtype=np.uint64)]
        args = model, cohort, config, seeds
        expected = outcome(reference_local_train, *args)
        try:
            update = local_train(*args, stacks)
        except FedGateError as err:
            assert str(err) == expected and expected.startswith("training diverged on client 'c06': ")
        else:
            assert update.tobytes() == expected
            for weights, gradient in stacks.values():
                assert not np.shares_memory(update, weights) and not np.shares_memory(update, gradient.grad)
            kept.append((update, update.tobytes()))
        sizes = cohort.sizes.tolist()
        assert set(stacks) == {(sizes.count(n), n) for n in sizes}
        for shape in stacks.keys() & held_before.keys():
            assert stacks[shape] is held_before[shape]
        held_before = dict(stacks)
    assert all(update.tobytes() == frozen for update, frozen in kept)
    assert len(kept) == len(rounds) - 1


def test_a_train_deep_shaped_job_builds_one_stack_that_dies_with_the_job(monkeypatch):
    import weakref

    import fedgate.fl.federation as federation
    import fedgate.fl.training as training

    built, held = [], []

    class CountedGradient(StackedGradient):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(weakref.ref(self))

    def watching(model, cohort, config, round_seeds, stacks):
        update = local_train(model, cohort, config, round_seeds, stacks)
        held.append(sorted(stacks))
        return update

    monkeypatch.setattr(training, "StackedGradient", CountedGradient)
    monkeypatch.setattr(federation, "local_train", watching)
    spec = SyntheticSpec(n_clients=20, samples_per_client=100, feature_dim=20, separability=0.5, label_skew=0.6, seed=3)
    fleet, _ = generate_partitions(spec)
    config = FederationConfig(
        total_rounds=20,
        total_clients=20,
        subset_size=20,
        local_epochs=5,
        learning_rate=0.05,
        loss=LossSpec(kind="logistic", feature_dim=20, bias=True),
        batch_mode="minibatch",
        batch_size=10,
    )
    run_federation(config, fleet)
    assert held == [[(20, 100)]] * 20
    assert len(built) == 1 and built[0]() is None


@pytest.mark.parametrize("late_rows", [1, 2])
def test_cohort_divergence_names_the_client_the_sequential_loop_names(late_rows):
    # w' = w (1 - x^2) per epoch (squared error, y = 0, lr 0.5, full batch): client
    # "b" grows 1e8-fold, passes 1e6 in epoch 1 and overflows by epoch 39, which
    # must not replace its first detail; the lower id "a" grows 9-fold and only
    # passes 1e6 in epoch 7. "a" trains in a separate stack when late_rows = 2.
    late = make_partition(
        client_id="a", features=np.full((late_rows, 1), np.sqrt(10.0)), labels=np.zeros(late_rows)
    )
    early = make_partition(client_id="b", features=np.array([[1e4]]), labels=np.array([0.0]))
    config = make_config(learning_rate=0.5, local_epochs=40)
    model = np.array([1.0])
    with pytest.raises(FedGateError, match="^training diverged on client 'a': ") as expected:
        for part in (late, early):
            sequential_local_train(model, part, config, 0)
    for cohort in ([late, early], [early, late]):
        with pytest.raises(FedGateError) as err:
            local_train(model, as_fleet(cohort), config, [0, 0], {})
        assert str(err.value) == str(expected.value)
    with pytest.raises(FedGateError, match="^training diverged on client 'b': .*exceeded 1e\\+06$"):
        local_train(model, as_fleet([early]), config, [0], {})


@pytest.mark.parametrize("kind", ["logistic", "squared_error"])
@pytest.mark.parametrize("bias", [False, True])
def test_a_training_step_makes_no_array(kind, bias):
    # 20 clients, batches of 50: each (k, m) array is 8,000 bytes. A step makes
    # views and ufunc iterators only; a bias is broadcast by copyto into a buffer,
    # since a broadcast add's ufunc iterator would take one (k, m) array of scratch.
    rng = np.random.default_rng(4)
    loss = LossSpec(kind=kind, feature_dim=20, bias=bias)
    weights = rng.normal(size=(20, loss.parameter_dim))
    gradient = StackedGradient(weights, 100, 50, loss)
    gradient.gather(rng.normal(size=(500, 20)), (rng.random(500) > 0.5).astype(float), rng.integers(0, 500, (20, 100)))
    steps = iter(gradient)
    next(steps)
    tracemalloc.start()
    try:
        grad = next(steps)
        grad *= 0.1
        weights -= grad
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2048


def test_run_federation_trains_each_round_in_one_call(monkeypatch):
    import fedgate.fl.federation as federation

    calls = []

    def counting(model, partitions, config, round_seeds, stacks):
        calls.append([p.client_id for p in partitions])
        return local_train(model, partitions, config, round_seeds, stacks)

    monkeypatch.setattr(federation, "local_train", counting)
    rng = np.random.default_rng(8)
    parts = random_partitions(rng, [5, 9, 5, 12, 9], "logistic")
    config = cohort_config("logistic", True, 4, total_rounds=4, total_clients=5, subset_size=3)
    run_federation(config, as_fleet(parts))
    assert len(calls) == 4
    assert all(ids == sorted(ids) and len(ids) == 3 for ids in calls)


def pooled_mean_loss(model, partitions, spec):
    """Oracle: concatenate all samples and average sample-by-sample."""
    x = np.vstack([p.features for p in partitions])
    y = np.concatenate([p.labels for p in partitions])
    return mean_loss(model, x, y, spec)


def pooled_eval(model, partitions, spec):
    """(global_loss, training_accuracy) as ``run_federation`` computes them."""
    with FleetScores(as_fleet(partitions), spec) as evaluation:
        return global_loss(evaluation, model), training_accuracy(evaluation)


def reductions(scores, labels, kind="logistic"):
    """(global_loss, training_accuracy) of these scores: each is a one-feature
    sample's own value, scored by the model [1.0], which keeps it."""
    part = make_partition(client_id="z", features=np.asarray(scores)[:, None], labels=np.asarray(labels))
    return pooled_eval(np.array([1.0]), [part], LossSpec(kind=kind, feature_dim=1))


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
    p1 = make_partition(client_id="s", features=np.array([[1.0]]), labels=np.array([0.0]))
    p2 = make_partition(
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
                make_partition(
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
                make_partition(
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
    part = make_partition(client_id="z", features=np.ones((5, 2)), labels=labels)
    model = np.zeros(spec.parameter_dim)
    assert np.all(predict(model, part.features, spec) == 0.5)
    assert pooled_eval(model, [part], spec)[1] == 3 / 5 == per_partition_accuracy(model, [part], spec)


def test_accuracy_threshold_is_exactly_p_at_least_one_half():
    # _sigmoid returns exactly 0.5 down to z = -1e-17, and less from -5.6e-17 on.
    scores = np.array([0.0, -0.0, -1e-17, -5.6e-17, -1e-15])
    assert sigmoid(scores).tolist()[:3] == [0.5, 0.5, 0.5]
    assert np.all(sigmoid(scores[3:]) < 0.5)
    for i, z in enumerate(scores):
        positive = i < 3
        assert reductions([z], [1.0])[1] == float(positive)
        assert reductions([z], [0.0])[1] == float(not positive)
    assert reductions(scores, np.ones(5))[1] == 3 / 5


@pytest.mark.parametrize("n", [1, 1000])
def test_sigmoid_half_is_the_least_score_sigmoid_rounds_to_one_half(n):
    # numpy's exp runs 1,000 samples through its SIMD body and 1 through its
    # remainder lanes; a numpy whose exp moves this boundary fails here.
    assert np.all(sigmoid(np.full(n, SIGMOID_HALF)) >= 0.5)
    assert np.all(sigmoid(np.full(n, np.nextafter(SIGMOID_HALF, -np.inf))) < 0.5)


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
    z, y = (np.array(column) for column in zip(*pairs))
    softplus = np.logaddexp(0.0, z)
    # The two exps differ by an ulp at times, and y*z can cancel most of
    # softplus, so the drift is counted in ulps of the terms, not of their difference.
    loss, accuracy = reductions(z, y)
    drift = abs(loss - np.mean(softplus - y * z))
    assert drift <= 4 * np.spacing(np.mean(softplus + np.abs(y * z)))
    hits = np.count_nonzero((sigmoid(z) >= 0.5) == (y >= 0.5))
    assert accuracy == hits / len(z)


@st.composite
def mixed_fleets(draw):
    """Hand-built partitions of one drawn feature width and unequal sizes, which
    ``as_fleet`` packs into one pool, so adjacent clients meet the run rule."""
    d = draw(st.sampled_from([1, 3, 8, 20]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=14))
    return [make_partition(f"{i:03d}", rng.normal(size=(n, d)), rng.random(n)) for i, n in enumerate(sizes)], d


@settings(max_examples=200, deadline=None)
@given(fleet=mixed_fleets(), bias=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fleet_scores_keep_the_bits_of_one_matmul_per_partition(fleet, bias, seed):
    parts, d = fleet
    loss = LossSpec(kind="logistic", feature_dim=d, bias=bias)
    scores = FleetScores(as_fleet(parts), loss)
    rng = np.random.default_rng(seed)
    assert scores.labels.tobytes() == np.concatenate([p.labels for p in parts]).tobytes()
    for _ in range(2):  # refilled in place
        model = rng.normal(size=loss.parameter_dim)
        assert scores.fill(model).tobytes() == per_partition_scores(model, parts, loss).tobytes()


@st.composite
def pool_fleets(draw):
    """Clients of one ``generate_partitions`` pool as jobs select them: pieces of
    every-k-th clients from an offset, adjacent ranges, ``max_samples_per_client``
    caps of either and shuffled subsets, one after another, which leave gaps and
    strides between clients. The fleet selects and caps them on the pool, as
    ``apply_filter`` does."""
    n, d = draw(st.integers(1, 16)), draw(st.sampled_from([1, 3, 20]))
    spec = SyntheticSpec(n_clients=40, samples_per_client=n, feature_dim=d, separability=0.5, seed=draw(st.integers(0, 99)), label_skew=0.0)
    pool, _ = generate_partitions(spec)
    index, sizes = [], []
    for kind in draw(st.lists(st.sampled_from(["strided", "range", "shuffled"]), min_size=1, max_size=4)):
        if kind == "strided":
            k = draw(st.integers(1, 9))
            piece = range(draw(st.integers(0, k - 1)), 40, k)
        elif kind == "range":
            start = draw(st.integers(0, 39))
            piece = range(start, draw(st.integers(start + 1, 40)))
        else:
            piece = draw(st.lists(st.integers(0, 39), min_size=1, max_size=12, unique=True))
        cap = draw(st.none() | st.integers(1, 13))
        index += piece
        sizes += [n if cap is None else min(n, cap)] * len(piece)
    return replace(pool.select(index), sizes=np.array(sizes)), d


@settings(max_examples=200, deadline=None)
@given(fleet=pool_fleets(), bias=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_fleet_scores_of_pool_selections_keep_per_partition_bits(fleet, bias, seed):
    parts, d = fleet
    loss = LossSpec(kind="logistic", feature_dim=d, bias=bias)
    model = np.random.default_rng(seed).normal(size=loss.parameter_dim)
    assert FleetScores(parts, loss).fill(model).tobytes() == per_partition_scores(model, parts, loss).tobytes()


def test_fleet_scores_keep_per_partition_bits_under_two_blas_threads():
    # OpenBLAS splits a product of this many rows over two threads, and the split
    # moves with the row count, so a product over two clients' rows rounds some rows
    # unlike the two clients' own products. On a one-CPU host OpenBLAS caps itself
    # at one thread, so there this test passes however clients are joined.
    code = """if True:
        import numpy as np
        from fedgate.fl import LossSpec
        from fedgate.fl.data import as_fleet
        from fedgate.fl.training import FleetScores
        from support import make_partition, per_partition_scores
        rng = np.random.default_rng(11)
        loss = LossSpec(kind="logistic", feature_dim=20, bias=True)
        for sizes in ([100000, 2], [100004, 100004]):
            parts = [make_partition(str(i), rng.normal(size=(n, 20)), rng.random(n)) for i, n in enumerate(sizes)]
            with FleetScores(as_fleet(parts), loss) as scores:
                for _ in range(3):
                    model = rng.normal(size=loss.parameter_dim)
                    assert scores.fill(model).tobytes() == per_partition_scores(model, parts, loss).tobytes(), sizes
    """
    run_under_blas_threads(code, 2)


def runs_per_half(fleet, loss):
    """How many batched matmuls fill each half of the fleet's scores."""
    with FleetScores(fleet, loss) as scores:
        return [len(runs) for runs, _ in scores._halves]


def test_an_every_tenth_client_filter_of_the_bench_fleet_is_one_run():
    spec = SyntheticSpec(
        n_clients=1000, samples_per_client=100, feature_dim=20, separability=0.5, label_skew=0.6, label_noise=0.05, seed=1
    )
    pool, _ = generate_partitions(spec)
    loss = LossSpec(kind="logistic", feature_dim=20, bias=True)
    for offset in (0, 3, 9):
        chosen = apply_filter(pool, DataFilter(client_ids=pool.ids[offset::10]))
        assert len(chosen) == 100 and runs_per_half(chosen, loss) == [1]
    capped = apply_filter(pool, DataFilter(max_samples_per_client=7))
    assert runs_per_half(capped, loss) == [1]


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
    spec = SyntheticSpec(n_clients=30, samples_per_client=12, feature_dim=3, separability=0.5, seed=2, label_skew=0.0)
    parts, _ = generate_partitions(spec)
    config = make_config(
        total_rounds=4,
        total_clients=30,
        subset_size=5,
        loss=LossSpec(kind="logistic", feature_dim=3, bias=True),
    )
    run_federation(config, parts.select(range(len(parts))[::-1]))
    assert counter.calls == 4


def test_evaluation_makes_no_pooled_copy_of_the_features():
    rng = np.random.default_rng(5)
    parts = [
        make_partition(
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
    fleet = as_fleet(parts)  # the one copy, made before the window
    tracemalloc.start()
    try:
        run_federation(config, fleet)
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
    spec = SyntheticSpec(n_clients=30, samples_per_client=n, feature_dim=d, separability=0.5, seed=draw(st.integers(0, 99)), label_skew=0.0)
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
    assert all(p.features.base is fleet.features for p in parts)
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
    copies = [make_partition(p.client_id, p.features.copy(), p.labels.copy()) for p in fleet]
    assert np.array_equal(local_train(model, fleet, config, iter(seeds), {}), local_train(model, as_fleet(copies), config, seeds, {}))


def test_a_feature_filter_of_the_bench_fleet_is_one_run():
    spec = SyntheticSpec(
        n_clients=1000, samples_per_client=100, feature_dim=20, separability=0.5, label_skew=0.6, label_noise=0.05, seed=1
    )
    pool, _ = generate_partitions(spec)
    names = tuple(f"x{i}" for i in range(0, 20, 2))
    for data_filter in (DataFilter(feature_names=names), DataFilter(feature_names=names, max_samples_per_client=7)):
        fleet = apply_filter(pool, data_filter)
        assert set(runs_per_half(fleet, LossSpec(kind="logistic", feature_dim=10, bias=True))) == {1}


# ---------------------------------------------------------------- split evaluation


def allow_cpus(monkeypatch, count):
    """Make this process look as if it may run on ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def bench_fleet():
    spec = SyntheticSpec(
        n_clients=1000, samples_per_client=100, feature_dim=20, separability=0.5, label_skew=0.6, label_noise=0.05, seed=1
    )
    return generate_partitions(spec)[0], LossSpec(kind="logistic", feature_dim=20, bias=True)


def every_other_client_fleet():
    # 300 of 600 clients, every other one: one strided run, which the split cuts at item 150
    spec = SyntheticSpec(n_clients=600, samples_per_client=100, feature_dim=4, separability=0.5, seed=3, label_skew=0.0)
    pool, _ = generate_partitions(spec)
    return pool.select(range(1, 600, 2)), LossSpec(kind="logistic", feature_dim=4, bias=True)


def unequal_fleet(kind):
    rng = np.random.default_rng(17)
    parts, rows = [], 0
    while rows < SPLIT_ROWS + 5000:
        n = int(rng.integers(1, 700))
        labels = rng.random(n) if kind == "squared_error" else (rng.random(n) > 0.5).astype(float)
        parts.append(make_partition(f"{len(parts):04d}", rng.normal(size=(n, 3)), labels))
        rows += n
    return as_fleet(parts), LossSpec(kind=kind, feature_dim=3, bias=kind == "logistic")


SPLIT_FLEETS = {
    "bench": bench_fleet,
    "strided": every_other_client_fleet,
    "unequal": lambda: unequal_fleet("logistic"),
    "squared-no-bias": lambda: unequal_fleet("squared_error"),
}


@pytest.mark.parametrize("name", SPLIT_FLEETS)
def test_a_split_evaluation_keeps_every_bit_of_the_one_thread_evaluation(monkeypatch, name):
    fleet, loss = SPLIT_FLEETS[name]()
    rng = np.random.default_rng(23)
    models = [rng.normal(scale=0.5, size=loss.parameter_dim) for _ in range(3)]
    results = {}
    for cpus in (1, 2):
        allow_cpus(monkeypatch, cpus)
        with FleetScores(fleet, loss) as evaluation:
            rows = [rows for _, rows in evaluation._halves]
            results[cpus] = []
            for model in models:
                loss_value = global_loss(evaluation, model)
                results[cpus].append(
                    (evaluation.scores.tobytes(), evaluation.terms.tobytes(), evaluation.hits.tobytes(),
                     loss_value, training_accuracy(evaluation))
                )
        if cpus == 1:
            assert rows == [slice(0, len(evaluation.scores))]
        else:  # halves of the rows, cut at a client's end
            ends = np.cumsum(fleet.sizes)
            assert len(rows) == 2 and rows[0].stop in ends and rows[1] == slice(rows[0].stop, int(ends[-1]))
            assert abs(2 * rows[0].stop - ends[-1]) <= fleet.sizes.max()
    assert results[1] == results[2]
    assert results[2][0][0] == per_partition_scores(models[0], list(fleet), loss).tobytes()


def test_the_split_cuts_a_strided_run_in_two(monkeypatch):
    fleet, loss = every_other_client_fleet()
    allow_cpus(monkeypatch, 2)
    with FleetScores(fleet, loss) as evaluation:
        (first, _), (second, _) = evaluation._halves
        assert [out.shape for _, out in first + second] == [(150, 100), (150, 100)]
    allow_cpus(monkeypatch, 1)
    assert runs_per_half(fleet, loss) == [1]


def test_a_fleet_below_split_rows_or_of_one_client_is_filled_on_one_thread(monkeypatch):
    allow_cpus(monkeypatch, 2)
    loss = LossSpec(kind="logistic", feature_dim=2, bias=True)
    rng = np.random.default_rng(4)
    for sizes in ([SPLIT_ROWS // 2 - 1, SPLIT_ROWS // 2], [SPLIT_ROWS + 10]):
        fleet = as_fleet([make_partition(f"{i}", rng.normal(size=(n, 2)), rng.random(n)) for i, n in enumerate(sizes)])
        with FleetScores(fleet, loss) as evaluation:
            assert len(evaluation._halves) == 1 and evaluation._worker is None


def test_a_fleet_of_exactly_split_rows_is_filled_in_two_halves(monkeypatch):
    allow_cpus(monkeypatch, 2)
    rng = np.random.default_rng(4)
    sizes = [SPLIT_ROWS // 2, SPLIT_ROWS - SPLIT_ROWS // 2]
    fleet = as_fleet([make_partition(f"{i}", rng.normal(size=(n, 2)), rng.random(n)) for i, n in enumerate(sizes)])
    with FleetScores(fleet, LossSpec(kind="logistic", feature_dim=2, bias=True)) as evaluation:
        assert len(evaluation._halves) == 2 and evaluation._worker is not None


def test_an_error_on_the_worker_reaches_the_caller(monkeypatch):
    fill = FleetScores._fill

    def failing(self, model, runs, rows):
        if rows.start:
            raise FloatingPointError("worker rows")
        fill(self, model, runs, rows)

    allow_cpus(monkeypatch, 2)
    monkeypatch.setattr(FleetScores, "_fill", failing)
    fleet, loss = every_other_client_fleet()
    with FleetScores(fleet, loss) as evaluation:
        with pytest.raises(FloatingPointError, match="worker rows"):
            evaluation.fill(np.ones(loss.parameter_dim))


def thread_count():
    return len(os.listdir("/proc/self/task"))


def settled_thread_count(expected):
    """This process's thread count once it reaches ``expected``, or after 5 s:
    a joined thread may still be leaving the kernel's list."""
    deadline = time.monotonic() + 5
    while thread_count() != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return thread_count()


def test_a_job_ends_its_worker_when_it_returns(monkeypatch):
    fleet, _ = every_other_client_fleet()
    config = make_config(
        total_rounds=3, total_clients=len(fleet), subset_size=5, loss=LossSpec(kind="logistic", feature_dim=4, bias=True)
    )
    runs = {}
    for cpus in (1, 2):
        allow_cpus(monkeypatch, cpus)
        before, rounds = thread_count(), []
        model = run_federation(config, fleet, lambda m: rounds.append((m, thread_count())))
        runs[cpus] = model.tobytes(), [m for m, _ in rounds]
        assert [n for _, n in rounds] == [before + cpus - 1] * 3
        assert settled_thread_count(before) == before
    assert runs[1] == runs[2]


def test_a_job_ends_its_worker_when_training_diverges(monkeypatch):
    # w steps to w - 50.5 * 2w = -100w on every row, so the model passes the
    # divergence limit in round 2, after round 1's split evaluation
    rows = SPLIT_ROWS // 3 + 1
    parts = [make_partition(f"{i}", np.ones((rows, 1)), np.zeros(rows)) for i in range(3)]
    config = make_config(
        total_rounds=3, total_clients=3, subset_size=3, learning_rate=50.5, initial_weights=(1000.0,)
    )
    allow_cpus(monkeypatch, 2)
    before, counts = thread_count(), []
    with pytest.raises(FedGateError, match="weight magnitude exceeded") as caught:
        run_federation(config, as_fleet(parts), lambda m: counts.append(thread_count()))
    assert counts == [before + 1]
    # the traceback keeps the job's frame, and so its evaluation, alive: only a shutdown ends the worker
    assert caught.tb is not None and settled_thread_count(before) == before
