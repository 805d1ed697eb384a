import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgate.errors import ValidationError
from fedgate.fl import (
    FederationConfig,
    LossSpec,
    SyntheticSpec,
    generate_partitions,
    run_federation,
)
from fedgate.fl.data import as_fleet
from fedgate.fl.federation import (
    MAX_JOB_ROWS,
    MAX_JOB_STEPS,
    aggregate,
    check_fleet,
    client_round_seed,
    compute_weights,
    initial_model,
    select_clients,
)

from support import gradient, make_partition


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
            make_partition(
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
    return make_partition(
        client_id=cid, features=np.ones((n, 1)), labels=np.zeros(n)
    )


def test_uniform_weights():
    parts = [sized_partition(c, n) for c, n in [("a", 1), ("b", 9), ("c", 2), ("d", 5)]]
    w = compute_weights(as_fleet(parts), make_config(total_clients=4, subset_size=4, weighting="uniform"))
    assert all(v == pytest.approx(0.25) for v in w.values())


def test_proportional_weights():
    parts = [sized_partition("a", 2), sized_partition("b", 6)]
    w = compute_weights(as_fleet(parts), make_config())
    assert w["a"] == pytest.approx(0.25)
    assert w["b"] == pytest.approx(0.75)


def test_proportional_equal_sizes_matches_uniform():
    parts = [sized_partition("a", 3), sized_partition("b", 3), sized_partition("c", 3)]
    prop = compute_weights(as_fleet(parts), make_config(total_clients=3, subset_size=3))
    unif = compute_weights(as_fleet(parts), make_config(total_clients=3, subset_size=3, weighting="uniform"))
    assert prop == pytest.approx(unif)


# Row views of one locked pool, so a cohort of 1,000 partitions costs no copies.
_ONES = np.ones((1000, 1))
_ONES.flags.writeable = False
_ZEROS = np.zeros(1000)
_ZEROS.flags.writeable = False


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(min_value=1, max_value=1000), min_size=1, max_size=1000),
    weighting=st.sampled_from(["proportional", "uniform"]),
)
@example(sizes=[1000] * 1000, weighting="proportional")
@example(sizes=[1] + [1000] * 999, weighting="proportional")
@example(sizes=[7] * 1000, weighting="uniform")
def test_weights_sum_to_one(sizes, weighting):
    # Up to the bench fleet's 1,000 partitions: every weight is a convex one and
    # the sum is 1 up to float error, the check ``aggregate`` takes on trust.
    parts = [make_partition(f"c{i}", _ONES[:n], _ZEROS[:n]) for i, n in enumerate(sizes)]
    config = make_config(total_clients=len(parts), subset_size=len(parts), weighting=weighting)
    w = compute_weights(as_fleet(parts), config)
    assert sorted(w) == sorted(p.client_id for p in parts)
    assert all(0.0 < v <= 1.0 for v in w.values())
    assert abs(sum(w.values()) - 1.0) <= 1e-12


# ---------------------------------------------------------------- aggregate


def test_aggregate_midpoint():
    out = aggregate({"a": np.array([1.0, 2.0]), "b": np.array([3.0, 4.0])}, {"a": 0.5, "b": 0.5})
    assert out.tolist() == [2.0, 3.0]


def test_aggregate_single_client_identity():
    m = np.array([7.0, -1.0])
    assert aggregate({"x": m}, {"x": 1.0}).tobytes() == m.tobytes()


def test_aggregate_quarter_three_quarter():
    out = aggregate({"a": np.array([0.0, 0.0]), "b": np.array([4.0, 4.0])}, {"a": 0.25, "b": 0.75})
    assert out.tolist() == [3.0, 3.0]


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_aggregate_convex_bounds_and_permutation_invariance(data):
    n = data.draw(st.integers(min_value=1, max_value=6))
    dim = data.draw(st.integers(min_value=1, max_value=5))
    vals = st.floats(min_value=-100, max_value=100, allow_nan=False)
    updates = {
        f"c{i}": np.array(data.draw(st.lists(vals, min_size=dim, max_size=dim)))
        for i in range(n)
    }
    raw = [data.draw(st.floats(min_value=0.01, max_value=1.0)) for _ in range(n)]
    total = sum(raw)
    weights = {f"c{i}": raw[i] / total for i in range(n)}

    out = aggregate(updates, weights)
    stacked = np.vstack(list(updates.values()))
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    assert np.all(out >= lo - 1e-9)
    assert np.all(out <= hi + 1e-9)

    # Handing the dicts over in a different insertion order changes nothing.
    rev_updates = dict(reversed(list(updates.items())))
    rev_weights = dict(reversed(list(weights.items())))
    assert aggregate(rev_updates, rev_weights).tobytes() == out.tobytes()


def sequential_aggregate(updates, weights):
    """Oracle: the running sum, one weighted update at a time in ascending id order."""
    ids = sorted(updates)
    acc = np.zeros_like(updates[ids[0]])
    for cid in ids:
        acc = acc + weights[cid] * updates[cid]
    return acc


@settings(max_examples=150, deadline=None)
@given(
    k=st.integers(1, 60),
    p=st.integers(1, 25),
    seed=st.integers(0, 2**32 - 1),
    zero_share=st.sampled_from([0.0, 0.2, 1.0]),
)
@example(k=1, p=1, seed=0, zero_share=1.0)  # 0.0 + (-0.0) is +0.0, which a sum from the first term would not give
@example(k=9, p=1, seed=0, zero_share=0.0)  # a one-weight model, which a pairwise sum would reorder
def test_aggregate_returns_the_bytes_of_the_sequential_sum(k, p, seed, zero_share):
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(k, p)) * 10.0 ** rng.integers(-8, 9, size=(k, 1))
    rows[rng.random((k, p)) < zero_share] = -0.0
    raw = rng.random(k) + 0.01
    updates = {f"c{i:02d}": rows[i] for i in rng.permutation(k)}
    weights = {f"c{i:02d}": w for i, w in enumerate(raw / raw.sum())}
    assert aggregate(updates, weights).tobytes() == sequential_aggregate(updates, weights).tobytes()


# ------------------------------------------------------------- federation


def test_round_count_must_be_positive():
    with pytest.raises(ValidationError):
        make_config(total_rounds=0)


def test_single_noop_round_returns_initial_model():
    config = make_config(learning_rate=0.0)
    parts = [sized_partition("a", 2), sized_partition("b", 3)]
    final = run_federation(config, as_fleet(parts))
    assert final.tobytes() == np.zeros(1).tobytes()


def centralized_gd_step(model, partitions, config):
    """Oracle: one full-batch gradient step on the pooled mean loss."""
    x = np.vstack([p.features for p in partitions])
    y = np.concatenate([p.labels for p in partitions])
    grad = gradient(model, x, y, config.loss)
    return model - config.learning_rate * grad


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
        final = run_federation(config, as_fleet(parts))
        expected = centralized_gd_step(initial_model(config), parts, config)
        assert np.max(np.abs(final - expected)) <= 1e-9


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
    a = run_federation(config, as_fleet(parts))
    b = run_federation(config, as_fleet(parts))
    assert a.tobytes() == b.tobytes()


def test_observer_receives_one_row_per_round():
    config = make_config(total_rounds=4, total_clients=2, subset_size=1)
    parts = [sized_partition("a", 2), sized_partition("b", 3)]
    seen = []
    run_federation(config, as_fleet(parts), seen.append)
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
        return m.round_index >= 3

    run_federation(config, as_fleet(parts), observer)
    assert len(seen) == 3


def test_eligibility_excludes_clients():
    config = make_config(total_rounds=6, total_clients=3, subset_size=2)
    parts = [sized_partition(c, 2) for c in ("a", "b", "c")]
    seen = []

    def eligibility(t):
        return frozenset({"a", "b", "c"}) if t < 4 else frozenset({"a", "c"})

    run_federation(config, as_fleet(parts), seen.append, eligibility=eligibility)
    for m in seen:
        if m.round_index >= 4:
            assert "b" not in m.selected_clients


def test_partition_count_must_match_config():
    config = make_config(total_clients=3, subset_size=2)
    with pytest.raises(ValidationError):
        run_federation(config, as_fleet([sized_partition("a", 1)]))


def test_a_fleet_with_an_id_twice_is_refused():
    config = make_config(total_clients=2)
    with pytest.raises(ValidationError, match="duplicate client ids"):
        run_federation(config, as_fleet([sized_partition("a", 2), sized_partition("a", 3)]))


@pytest.mark.parametrize("epochs, accepted", [(MAX_JOB_ROWS // 100, True), (MAX_JOB_ROWS // 100 + 1, False)])
def test_a_job_steps_through_at_most_max_job_rows(epochs, accepted):
    # 2 rounds x 2 of 2 clients x E epochs x 25 rows, the largest client's: 100 E rows.
    fleet = as_fleet([sized_partition("a", 3), sized_partition("b", 25)])
    config = make_config(total_rounds=2, local_epochs=epochs)
    if accepted:
        assert check_fleet(config, fleet) is fleet
    else:
        with pytest.raises(ValidationError, match=f"largest client's rows is {100 * epochs}, over {MAX_JOB_ROWS}"):
            check_fleet(config, fleet)


@pytest.mark.parametrize(
    "batch_size, rounds, accepted",
    [(1, MAX_JOB_STEPS // 50, True), (1, MAX_JOB_STEPS // 50 + 1, False), (10, MAX_JOB_STEPS // 50 + 1, True)],
)
def test_a_job_takes_at_most_max_job_steps(batch_size, rounds, accepted):
    # R rounds x 2 of 2 clients x 1 epoch x ceil(25 / b) steps, the largest client's:
    # 50 R steps at b = 1 and 6 R at b = 10, over 50 R rows, within MAX_JOB_ROWS.
    fleet = as_fleet([sized_partition("a", 3), sized_partition("b", 25)])
    config = make_config(total_rounds=rounds, batch_mode="minibatch", batch_size=batch_size)
    if accepted:
        assert check_fleet(config, fleet) is fleet
    else:
        with pytest.raises(ValidationError, match=f"steps per epoch is {50 * rounds}, over {MAX_JOB_STEPS}"):
            check_fleet(config, fleet)


@pytest.mark.parametrize("batch_mode, batch_size, derived", [("full", None, 0), ("minibatch", 2, 12)])
def test_round_seeds_are_derived_only_where_minibatches_draw_them(monkeypatch, batch_mode, batch_size, derived):
    import fedgate.fl.federation as federation

    calls = []

    def counting(rng_seed, round_index, client_id):
        calls.append((round_index, client_id))
        return client_round_seed(rng_seed, round_index, client_id)

    monkeypatch.setattr(federation, "client_round_seed", counting)
    config = make_config(
        total_rounds=4, total_clients=5, subset_size=3, batch_mode=batch_mode, batch_size=batch_size
    )
    run_federation(config, as_fleet(random_partitions(np.random.default_rng(4), 5, 1)))
    assert len(calls) == derived


def test_a_run_keeps_its_bits_whatever_the_fleet_layout():
    # One generated pool, its clients' copies (each a pool of its own) and the
    # pool's clients in reverse all train and score to the same bytes.
    parts, _ = generate_partitions(
        SyntheticSpec(n_clients=12, samples_per_client=9, feature_dim=3, separability=0.5, seed=6, label_skew=0.5)
    )
    copies = [make_partition(p.client_id, p.features.copy(), p.labels.copy()) for p in parts]
    for batch_mode, batch_size in (("full", None), ("minibatch", 4)):
        config = make_config(
            total_rounds=5,
            total_clients=12,
            subset_size=4,
            loss=LossSpec(kind="logistic", feature_dim=3, bias=True),
            batch_mode=batch_mode,
            batch_size=batch_size,
        )
        runs = []
        for fleet in (parts, as_fleet(copies), parts.select(range(len(parts))[::-1])):
            seen = []
            runs.append((run_federation(config, fleet, seen.append).tobytes(), seen))
        assert runs[0] == runs[1] == runs[2]
