import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgate.errors import ValidationError
from fedgate.fl import DatasetPartition, FederationConfig, LossSpec, run_federation
from fedgate.fl.federation import (
    AggregationWeights,
    aggregate,
    compute_weights,
    initial_model,
    select_clients,
)
from fedgate.fl.model import ModelParameters

from support import gradient


def make_config(**overrides):
    base = dict(
        total_rounds=1,
        total_clients=2,
        subset_size=2,
        local_epochs=1,
        learning_rate=0.1,
        loss=LossSpec(kind="squared_error", feature_dim=1),
        rng_seed=5,
    )
    base.update(overrides)
    return FederationConfig(**base)


def random_partitions(rng, n_clients, dim, max_samples=8, logistic=False):
    parts = []
    for i in range(n_clients):
        n = int(rng.integers(1, max_samples + 1))
        labels = (
            (rng.random(n) > 0.5).astype(float) if logistic else rng.normal(size=n)
        )
        parts.append(
            DatasetPartition(
                client_id=f"c{i:02d}", features=rng.normal(size=(n, dim)), labels=labels
            )
        )
    return parts


# ---------------------------------------------------------------- selection


def test_select_all_when_subset_is_everyone():
    config = make_config(total_clients=4, subset_size=4, rng_seed=999)
    assert select_clients(config, 1, ["d", "b", "a", "c"]) == ("a", "b", "c", "d")


def test_selection_is_deterministic_per_round():
    config = make_config(total_rounds=5, total_clients=10, subset_size=3)
    ids = [f"c{i}" for i in range(10)]
    assert select_clients(config, 3, ids) == select_clients(config, 3, ids)
    assert select_clients(config, 3, ids) != select_clients(config, 4, ids) or True


def test_selection_round_bounds():
    config = make_config(total_rounds=2)
    with pytest.raises(ValidationError):
        select_clients(config, 0, ["a", "b"])
    with pytest.raises(ValidationError):
        select_clients(config, 3, ["a", "b"])


def test_selection_frequencies_are_uniform():
    # Each client should be picked ~ rounds*K/N times; Bernoulli(K/N) per
    # round gives sd = sqrt(rounds * p * (1-p)).
    rounds = 1000
    n, k = 10, 3
    config = make_config(total_rounds=rounds, total_clients=n, subset_size=k, rng_seed=77)
    ids = [f"c{i}" for i in range(n)]
    counts = {cid: 0 for cid in ids}
    for t in range(1, rounds + 1):
        selected = select_clients(config, t, ids)
        assert len(selected) == k
        assert len(set(selected)) == k
        for cid in selected:
            counts[cid] += 1
    expected = rounds * k / n
    sd = (rounds * (k / n) * (1 - k / n)) ** 0.5
    for cid, c in counts.items():
        assert abs(c - expected) <= 3 * sd, f"{cid} selected {c} times"


def test_selection_clamps_to_small_roster():
    config = make_config(total_clients=5, subset_size=4)
    assert select_clients(config, 1, ["a", "b"]) == ("a", "b")


# ------------------------------------------------------------------ weights


def sized_partition(cid, n):
    return DatasetPartition(
        client_id=cid, features=np.ones((n, 1)), labels=np.zeros(n)
    )


def test_uniform_weights():
    parts = [sized_partition(c, n) for c, n in [("a", 1), ("b", 9), ("c", 2), ("d", 5)]]
    w = compute_weights(parts, make_config(total_clients=4, subset_size=4, weighting="uniform"))
    assert all(v == pytest.approx(0.25) for v in w.entries.values())


def test_proportional_weights():
    parts = [sized_partition("a", 2), sized_partition("b", 6)]
    w = compute_weights(parts, make_config())
    assert w.entries["a"] == pytest.approx(0.25)
    assert w.entries["b"] == pytest.approx(0.75)


def test_proportional_equal_sizes_matches_uniform():
    parts = [sized_partition("a", 3), sized_partition("b", 3), sized_partition("c", 3)]
    prop = compute_weights(parts, make_config(total_clients=3, subset_size=3))
    unif = compute_weights(parts, make_config(total_clients=3, subset_size=3, weighting="uniform"))
    assert prop.entries == pytest.approx(unif.entries)


@settings(max_examples=100, deadline=None)
@given(sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=8))
def test_weights_sum_to_one(sizes):
    parts = [sized_partition(f"c{i}", n) for i, n in enumerate(sizes)]
    config = make_config(total_clients=len(parts), subset_size=len(parts))
    w = compute_weights(parts, config)
    assert abs(sum(w.entries.values()) - 1.0) <= 1e-12


# ---------------------------------------------------------------- aggregate


def test_aggregate_midpoint():
    out = aggregate(
        {"a": ModelParameters.from_values([1, 2]), "b": ModelParameters.from_values([3, 4])},
        AggregationWeights({"a": 0.5, "b": 0.5}),
    )
    assert out.tolist() == [2.0, 3.0]


def test_aggregate_single_client_identity():
    m = ModelParameters.from_values([7.0, -1.0])
    assert aggregate({"x": m}, AggregationWeights({"x": 1.0})) == m


def test_aggregate_quarter_three_quarter():
    out = aggregate(
        {"a": ModelParameters.from_values([0, 0]), "b": ModelParameters.from_values([4, 4])},
        AggregationWeights({"a": 0.25, "b": 0.75}),
    )
    assert out.tolist() == [3.0, 3.0]


def test_aggregate_validates_keys_and_dims():
    w = AggregationWeights({"a": 1.0})
    with pytest.raises(ValidationError):
        aggregate({"b": ModelParameters.zeros(1)}, w)
    with pytest.raises(ValidationError):
        aggregate(
            {"a": ModelParameters.zeros(1), "b": ModelParameters.zeros(2)},
            AggregationWeights({"a": 0.5, "b": 0.5}),
        )


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_aggregate_convex_bounds_and_permutation_invariance(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    dim = data.draw(st.integers(min_value=1, max_value=5))
    vals = st.floats(min_value=-100, max_value=100, allow_nan=False)
    updates = {
        f"c{i}": ModelParameters.from_values(
            data.draw(st.lists(vals, min_size=dim, max_size=dim))
        )
        for i in range(n)
    }
    raw = [data.draw(st.floats(min_value=0.01, max_value=1.0)) for _ in range(n)]
    total = sum(raw)
    weights = AggregationWeights({f"c{i}": raw[i] / total for i in range(n)})

    out = aggregate(updates, weights)
    stacked = np.vstack([m.weights for m in updates.values()])
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    assert np.all(out.weights >= lo - 1e-9)
    assert np.all(out.weights <= hi + 1e-9)

    # Handing the dicts over in a different insertion order changes nothing.
    rev_updates = dict(reversed(list(updates.items())))
    rev_weights = AggregationWeights(dict(reversed(list(weights.entries.items()))))
    assert aggregate(rev_updates, rev_weights) == out


# ------------------------------------------------------------- federation


def test_round_count_must_be_positive():
    with pytest.raises(ValidationError):
        make_config(total_rounds=0)


def test_single_noop_round_returns_initial_model():
    config = make_config(learning_rate=0.0)
    parts = [sized_partition("a", 2), sized_partition("b", 3)]
    final = run_federation(config, parts)
    assert final == ModelParameters.zeros(1)


def centralized_gd_step(model, partitions, config):
    """Oracle: one full-batch gradient step on the pooled mean loss."""
    x = np.vstack([p.features for p in partitions])
    y = np.concatenate([p.labels for p in partitions])
    grad = gradient(model, x, y, config.loss)
    return model.weights - config.learning_rate * grad


@pytest.mark.parametrize("kind", ["squared_error", "logistic"])
def test_one_round_equals_centralized_step(kind):
    rng = np.random.default_rng(123)
    for trial in range(10):
        n = int(rng.integers(2, 9))
        dim = int(rng.integers(1, 17))
        bias = bool(rng.integers(0, 2))
        spec = LossSpec(kind=kind, feature_dim=dim, bias=bias)
        config = FederationConfig(
            total_rounds=1,
            total_clients=n,
            subset_size=n,
            local_epochs=1,
            learning_rate=float(rng.uniform(0.01, 0.5)),
            loss=spec,
            rng_seed=int(rng.integers(0, 2**31)),
            weighting="proportional",
            initial_weights=tuple(rng.normal(size=spec.parameter_dim)),
        )
        parts = random_partitions(rng, n, dim, logistic=(kind == "logistic"))
        final = run_federation(config, parts)
        expected = centralized_gd_step(initial_model(config), parts, config)
        assert np.max(np.abs(final.weights - expected)) <= 1e-9


def test_run_is_bitwise_reproducible():
    rng = np.random.default_rng(55)
    spec = LossSpec(kind="logistic", feature_dim=2)
    config = FederationConfig(
        total_rounds=6,
        total_clients=5,
        subset_size=3,
        local_epochs=2,
        learning_rate=0.2,
        loss=spec,
        rng_seed=101,
        batch_mode="minibatch",
        batch_size=2,
    )
    parts = random_partitions(rng, 5, 2, logistic=True)
    a = run_federation(config, parts)
    b = run_federation(config, parts)
    assert a.weights.tobytes() == b.weights.tobytes()


def test_observer_receives_one_row_per_round():
    config = make_config(total_rounds=4, total_clients=2, subset_size=1)
    parts = [sized_partition("a", 2), sized_partition("b", 3)]
    seen = []
    run_federation(config, parts, seen.append)
    assert [m.round_index for m in seen] == [1, 2, 3, 4]
    for m in seen:
        assert len(m.selected_clients) == 1
        assert np.isfinite(m.global_loss)


def test_early_stop_ends_run():
    config = make_config(total_rounds=10, learning_rate=0.0)
    parts = [sized_partition("a", 2), sized_partition("b", 3)]
    seen = []

    def observer(m):
        seen.append(m)

    run_federation(config, parts, observer, early_stop=lambda m: m.round_index >= 3)
    assert len(seen) == 3


def test_eligibility_excludes_clients():
    config = make_config(total_rounds=6, total_clients=3, subset_size=2)
    parts = [sized_partition(c, 2) for c in ("a", "b", "c")]
    seen = []

    def eligibility(t):
        return frozenset({"a", "b", "c"}) if t < 4 else frozenset({"a", "c"})

    run_federation(config, parts, seen.append, eligibility=eligibility)
    for m in seen:
        if m.round_index >= 4:
            assert "b" not in m.selected_clients


def test_partition_count_must_match_config():
    config = make_config(total_clients=3, subset_size=2)
    with pytest.raises(ValidationError):
        run_federation(config, [sized_partition("a", 1)])
