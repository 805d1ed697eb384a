import hashlib
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgate.errors import ValidationError
from fedgate.fl import (
    DatasetPartition,
    Fleet,
    SyntheticSpec,
    generate_partitions,
    load_partitions,
    write_dataset,
)
from fedgate.fl.data import as_fleet, load_partition, save_partition
from fedgate.fl.datagen import _BLOCK_ROWS, MANIFEST_NAME

from support import reference_pool, run_under_blas_threads


def read_manifest(directory: Path) -> dict:
    return json.loads((Path(directory) / MANIFEST_NAME).read_text())


def test_partition_validation():
    with pytest.raises(ValidationError):
        DatasetPartition(client_id="a", features=np.ones((2, 2)), labels=np.zeros(3))
    with pytest.raises(ValidationError):
        DatasetPartition(client_id="", features=np.ones((2, 2)), labels=np.zeros(2))
    with pytest.raises(ValidationError):
        DatasetPartition(
            client_id="a", features=np.array([[1.0, np.nan]]), labels=np.zeros(1)
        )


def test_partition_arrays_are_read_only():
    p = DatasetPartition(client_id="a", features=np.ones((2, 2)), labels=np.zeros(2))
    with pytest.raises(ValueError):
        p.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        p.labels[0] = 9.0


def locked_pool(rows=6, cols=2):
    pool = np.arange(rows * cols, dtype=np.float64).reshape(rows, cols).copy()
    pool.flags.writeable = False
    return pool


def test_mutating_the_callers_input_leaves_the_partition_unchanged():
    x, y = np.ones((3, 2)), np.zeros(3)
    p = DatasetPartition(client_id="a", features=x, labels=y)
    x[0, 0], y[0] = 9.0, 9.0
    assert p.features.tolist() == [[1.0, 1.0]] * 3 and p.labels.tolist() == [0.0] * 3


def test_a_read_only_view_of_a_writable_owner_is_copied():
    owner = np.ones((4, 2))
    view = owner[:2]
    view.flags.writeable = False
    p = DatasetPartition(client_id="a", features=view, labels=np.zeros(2))
    assert not np.shares_memory(p.features, owner)
    owner[0, 0] = 9.0
    assert p.features[0, 0] == 1.0


def test_a_locked_view_over_a_bytearray_is_copied():
    buffer = bytearray(np.ones(4).tobytes())
    flat = np.frombuffer(buffer)
    flat.flags.writeable = False
    p = DatasetPartition(client_id="a", features=flat.reshape(2, 2), labels=np.zeros(2))
    assert not np.shares_memory(p.features, flat)
    buffer[:8] = np.float64(9.0).tobytes()
    assert p.features.tolist() == [[1.0, 1.0], [1.0, 1.0]]


@pytest.mark.parametrize("source", ["writable", "pool-view"])
def test_partition_arrays_refuse_writes_copied_or_not(source):
    if source == "writable":
        x, y = np.ones((2, 2)), np.zeros(2)
    else:
        x, y = locked_pool()[:2], np.zeros(2)
        y.flags.writeable = False
    p = DatasetPartition(client_id="a", features=x, labels=y)
    with pytest.raises(ValueError):
        p.features[0, 0] = 9.0
    with pytest.raises(ValueError):
        p.labels[0] = 9.0


def test_shared_feature_space():
    parts = [
        DatasetPartition(client_id="a", features=np.ones((2, 3)), labels=np.zeros(2)),
        DatasetPartition(client_id="b", features=np.ones((5, 3)), labels=np.zeros(5)),
    ]
    assert as_fleet(parts).features.shape == (7, 3)
    bad = parts + [
        DatasetPartition(client_id="c", features=np.ones((1, 4)), labels=np.zeros(1))
    ]
    with pytest.raises(ValidationError, match="partition 'c' has columns"):
        as_fleet(bad)
    with pytest.raises(ValidationError, match="at least one partition"):
        as_fleet([])


@pytest.mark.parametrize(
    "header, twice", [("x,x,label", "x"), ("x,label,label", "label")], ids=["feature", "feature-and-label"]
)
def test_a_partition_names_each_column_once(tmp_path, header, twice):
    # Read as given, a featureNames filter of "x" would take the first column alone.
    path = tmp_path / "client_a.csv"
    path.write_text(f"{header}\n1.0,2.0,0.0\n")
    with pytest.raises(ValidationError, match=f"^partition 'a' names two columns '{twice}'$"):
        load_partition(path)
    *names, label = header.split(",")
    with pytest.raises(ValidationError, match=f"names two columns '{twice}'"):
        DatasetPartition("a", np.ones((1, 2)), np.zeros(1), feature_names=tuple(names), label_name=label)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    part = DatasetPartition(
        client_id="007",
        features=rng.normal(size=(13, 4)),
        labels=(rng.random(13) > 0.4).astype(float),
    )
    path = save_partition(part, tmp_path)
    assert path.name == "client_007.csv"
    back = load_partition(path)
    assert back.client_id == "007"
    # repr() round-trips floats exactly, so equality is bitwise.
    assert back.features.tobytes() == part.features.tobytes()
    assert back.labels.tobytes() == part.labels.tobytes()
    assert back.feature_names == part.feature_names


def test_load_partitions_sorted(tmp_path):
    for cid in ("b", "a", "c"):
        save_partition(
            DatasetPartition(
                client_id=cid, features=np.ones((1, 2)), labels=np.zeros(1)
            ),
            tmp_path,
        )
    parts = load_partitions(tmp_path)
    assert [p.client_id for p in parts] == ["a", "b", "c"]


def test_a_file_name_ending_in_a_newline_is_no_partition_file(tmp_path):
    path = save_partition(DatasetPartition(client_id="a", features=np.ones((1, 2)), labels=np.zeros(1)), tmp_path)
    path = path.rename(tmp_path / "client_a.csv\n")
    with pytest.raises(ValidationError, match="does not match client_<id>.csv"):
        load_partition(path)
    with pytest.raises(ValidationError, match="no client_<id>.csv files"):
        load_partitions(tmp_path)


def test_loaded_partitions_are_row_views_of_one_locked_pool(tmp_path):
    rng = np.random.default_rng(3)
    saved = {}
    for cid, n in (("b", 3), ("a", 2), ("c", 4)):
        saved[cid] = DatasetPartition(client_id=cid, features=rng.normal(size=(n, 2)), labels=rng.random(n))
        save_partition(saved[cid], tmp_path)
    parts = load_partitions(tmp_path)
    pool = parts[0].features.base
    assert all(p.features.base is pool for p in parts) and not pool.flags.writeable
    assert pool.tobytes() == b"".join(saved[c].features.tobytes() for c in "abc")
    assert parts[1].labels.base is parts[0].labels.base
    assert [p.labels.tobytes() for p in parts] == [saved[c].labels.tobytes() for c in "abc"]


@pytest.mark.parametrize(
    "edit, line",
    [
        (lambda lines: lines[2].replace(lines[2].split(",")[0], "abc", 1), 3),
        (lambda lines: lines[4] + ",0.5", 5),
        (lambda lines: lines[1] + "," + "9" * 200_000, 2),
    ],
    ids=["non-numeric-cell", "extra-field", "oversized-field"],
)
def test_load_partitions_names_the_line_of_a_bad_cell(tmp_path, edit, line):
    write_dataset(SyntheticSpec(n_clients=2, samples_per_client=5, feature_dim=2, separability=0.5, seed=3), tmp_path)
    path = tmp_path / "client_001.csv"
    lines = path.read_text().splitlines()
    lines[line - 1] = edit(lines)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValidationError, match=f"client_001.csv line {line}: "):
        load_partitions(tmp_path)


def test_select_features_subsets_columns():
    p = DatasetPartition(
        client_id="a",
        features=np.array([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]),
        labels=np.zeros(2),
        feature_names=("x", "y", "z"),
    )
    (q,) = as_fleet([replace(p)]).select_features(("z", "x"))
    assert q.feature_names == ("z", "x")
    assert q.features.tolist() == [[3.0, 1.0], [6.0, 4.0]]
    with pytest.raises(ValidationError):
        as_fleet([replace(p)]).select_features(("nope",))


# ----------------------------------------------------------------- datagen


def test_generated_shapes_and_determinism():
    spec = SyntheticSpec(
        n_clients=4, samples_per_client=25, feature_dim=3, separability=1.0, seed=11
    )
    parts1, manifest1 = generate_partitions(spec)
    parts2, manifest2 = generate_partitions(spec)
    assert len(parts1) == 4
    for p, q in zip(parts1, parts2):
        assert p.client_id == q.client_id
        assert p.features.tobytes() == q.features.tobytes()
        assert p.labels.tobytes() == q.labels.tobytes()
    assert manifest1 == manifest2
    assert [p.client_id for p in parts1] == ["000", "001", "002", "003"]


def test_generated_partitions_are_row_views_of_one_locked_pool_with_pinned_bits():
    spec = SyntheticSpec(
        n_clients=5, samples_per_client=7, feature_dim=3, separability=0.5, seed=4,
        label_skew=0.6, label_noise=0.1,
    )
    parts, _ = generate_partitions(spec)
    pool = parts[0].features.base
    assert pool.shape == (35, 3) and not pool.flags.writeable
    assert all(p.features.base is pool for p in parts)
    assert all(p.labels.base is parts[0].labels.base for p in parts)
    assert parts[0].feature_names == ("x0", "x1", "x2") and parts[0].label_name == "label"
    digest = hashlib.sha256()
    for p in parts:
        digest.update(p.features.tobytes())
        digest.update(p.labels.tobytes())
    # The generator's draws and arithmetic are pinned: the same bits as when
    # each client's arrays were built and copied on their own.
    assert digest.hexdigest() == "e967e9c5f6010f1a00fc68a658c2cdb5382b9baf10385c3aa760f4bd7184f262"


@st.composite
def generator_specs(draw):
    """Small fleets, and fleets one client short of, at and one client past one or
    two blocks of whole clients, with sizes that are and are not multiples of 4."""
    n = draw(st.sampled_from([1, 2, 3, 4, 7, 9, 100]))
    per_block = _BLOCK_ROWS // n
    k = draw(st.integers(1, 6) | st.sampled_from([per_block - 1, per_block, per_block + 1, 2 * per_block + 1]))
    return SyntheticSpec(
        n_clients=k, samples_per_client=n, feature_dim=draw(st.sampled_from([1, 3, 20])),
        separability=draw(st.sampled_from([0.0, 0.5, 2.0])), seed=draw(st.integers(0, 2**64 - 1)),
        label_skew=draw(st.sampled_from([0.0, 0.6, 1.0])), label_noise=draw(st.sampled_from([0.0, 0.1])),
    )


@settings(max_examples=60, deadline=None)
@given(spec=generator_specs())
@example(spec=SyntheticSpec(_BLOCK_ROWS + 1, 1, 3, 0.5, seed=5, label_skew=0.6, label_noise=0.1))
@example(spec=SyntheticSpec(2 * (_BLOCK_ROWS // 7), 7, 20, 0.5, seed=6, label_skew=1.0))
def test_the_block_generator_pools_the_bytes_of_one_client_at_a_time(spec):
    parts, _ = generate_partitions(spec)
    want_x, want_y = reference_pool(spec)
    assert parts[0].features.base.tobytes() == want_x.tobytes()
    assert parts[0].labels.base.tobytes() == want_y.tobytes()


def test_the_generated_pool_does_not_depend_on_the_blas_thread_count():
    # 601 rows of 20 make each client's product large enough for OpenBLAS to
    # split over two threads; 7 clients of 601 rows run one past a block.
    code = """if True:
        import hashlib
        from fedgate.fl import SyntheticSpec, generate_partitions
        from support import reference_pool
        for k, n in ((7, 601), (1000, 100)):
            spec = SyntheticSpec(n_clients=k, samples_per_client=n, feature_dim=20, separability=0.5,
                                 seed=21, label_skew=0.6, label_noise=0.05)
            parts, _ = generate_partitions(spec)
            got = parts[0].features.base.tobytes() + parts[0].labels.base.tobytes()
            want_x, want_y = reference_pool(spec)
            assert got == want_x.tobytes() + want_y.tobytes(), (k, n)
            print(hashlib.sha256(got).hexdigest())
    """
    assert run_under_blas_threads(code, 1) == run_under_blas_threads(code, 2)


def test_fleet_partitions_equal_those_built_by_hand_on_the_same_rows(tmp_path):
    spec = SyntheticSpec(
        n_clients=5, samples_per_client=7, feature_dim=3, separability=0.5, seed=4,
        label_skew=0.6, label_noise=0.1,
    )
    write_dataset(spec, tmp_path)
    for fleet in (generate_partitions(spec)[0], load_partitions(tmp_path)):
        x, y = fleet.features, fleet.labels
        assert not x.flags.writeable and not y.flags.writeable
        for p, start in zip(fleet, fleet.starts.tolist()):
            rows = slice(start, start + p.size)
            q = DatasetPartition(p.client_id, x[rows], y[rows], p.feature_names, p.label_name)
            assert (p.client_id, p.feature_names, p.label_name) == (q.client_id, q.feature_names, q.label_name)
            for got, want, pool in ((p.features, q.features, x), (p.labels, q.labels, y)):
                assert got.tobytes() == want.tobytes() and got.shape == want.shape
                assert got.base is pool and not np.shares_memory(want, pool) and not got.flags.writeable
            with pytest.raises(ValueError):
                p.features[0, 0] = 9.0
        # Only the handout skips the checks: a replaced partition is checked again.
        with pytest.raises(ValidationError, match="non-finite"):
            replace(fleet[0], features=np.full((fleet[0].size, 3), np.inf))


def test_both_producers_return_a_fleet_that_indexes_its_clients_as_it_iterates_them(tmp_path):
    spec = SyntheticSpec(n_clients=5, samples_per_client=7, feature_dim=3, separability=0.5, seed=4)
    write_dataset(spec, tmp_path)
    for fleet in (generate_partitions(spec)[0], load_partitions(tmp_path)):
        assert isinstance(fleet, Fleet)
        x, y = fleet.features, fleet.labels
        parts = list(fleet)
        for i in (*range(len(fleet)), -1):
            got, want = fleet[i], parts[i]
            for f in fields(DatasetPartition):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if isinstance(a, np.ndarray):  # a view of the pool, as the iterated one is
                    assert a.tobytes() == b.tobytes() and a.shape == b.shape and a.base is b.base
                    assert a.base is (x if f.name == "features" else y)
                else:
                    assert a == b
        with pytest.raises(IndexError):
            fleet[len(fleet)]


def test_a_partition_holds_exactly_its_five_fields():
    # No hidden field (a link back to the fleet that handed a partition out) comes back.
    assert [f.name for f in fields(DatasetPartition)] == [
        "client_id", "features", "labels", "feature_names", "label_name"
    ]


@pytest.mark.parametrize(
    "field, value",
    [("n_clients", 2.5), ("n_clients", True), ("feature_dim", "3"), ("seed", 1.5), ("label_skew", True),
     ("samples_per_client", None), ("label_noise", "0.1")],
)
def test_synthetic_spec_names_a_field_of_the_wrong_type(field, value):
    with pytest.raises(ValidationError, match=f"^{field} must be"):
        spec = dict(n_clients=2, samples_per_client=3, feature_dim=2, separability=0.5, seed=1)
        SyntheticSpec(**{**spec, field: value})


def test_labels_follow_recorded_hyperplane():
    spec = SyntheticSpec(
        n_clients=3, samples_per_client=40, feature_dim=2, separability=2.0, seed=3
    )
    parts, manifest = generate_partitions(spec)
    direction = np.array(manifest["hyperplane"], dtype=np.float64)
    for p in parts:
        margins = p.features @ direction
        # Separable data: the sign of the margin is the label.
        agree = ((margins > 0).astype(float) == p.labels).mean()
        assert agree == 1.0


def test_label_skew_shifts_positive_share():
    spec = SyntheticSpec(
        n_clients=2,
        samples_per_client=400,
        feature_dim=2,
        separability=1.0,
        seed=9,
        label_skew=0.6,
    )
    parts, _ = generate_partitions(spec)
    share0 = parts[0].labels.mean()
    share1 = parts[1].labels.mean()
    # target shares are 0.5 +- 0.3 at the two ends
    assert share0 == pytest.approx(0.2, abs=0.08)
    assert share1 == pytest.approx(0.8, abs=0.08)


def test_write_dataset_layout(tmp_path):
    spec = SyntheticSpec(
        n_clients=2, samples_per_client=5, feature_dim=2, separability=0.5, seed=21
    )
    out = tmp_path / "ds"
    write_dataset(spec, out)
    assert (out / "manifest.json").exists()
    assert (out / "client_000.csv").exists()
    assert (out / "client_001.csv").exists()
    manifest = read_manifest(out)
    assert manifest["nClients"] == 2
    parts = load_partitions(out)
    assert len(parts) == 2 and parts[0].size == 5


def test_a_fleet_hands_out_row_views_that_select_from_its_pool():
    fleet, _ = generate_partitions(SyntheticSpec(n_clients=6, samples_per_client=4, feature_dim=2, separability=0.5, seed=2))
    picked = fleet.select([5, 3, 1])
    assert picked.ids == ("005", "003", "001") and picked.starts.tolist() == [20, 12, 4]
    assert picked.features is fleet[0].features.base
    # Hand-built partitions are copied into one locked pool, even rows a fleet handed out.
    mixed = as_fleet([fleet[0], replace(fleet[1], client_id="x")])
    assert [p.client_id for p in mixed] == ["000", "x"] and mixed.starts.tolist() == [0, 4]
    for pool, given, view in (
        (mixed.features, fleet.features, mixed[1].features),
        (mixed.labels, fleet.labels, mixed[1].labels),
    ):
        assert view.base is pool and not pool.flags.writeable and not np.shares_memory(pool, given)
        assert pool.tobytes() == given[:8].tobytes()


def test_partitions_that_name_their_columns_differently_are_refused(tmp_path):
    a = DatasetPartition("a", np.array([[1.0, 2.0]]), np.zeros(1), feature_names=("age", "bmi"))
    b = DatasetPartition("b", np.array([[3.0, 4.0]]), np.ones(1), feature_names=("bmi", "age"))
    for p in (a, b):
        save_partition(p, tmp_path)
    # Trained as given, weight 0 would learn "age" from a and "bmi" from b.
    with pytest.raises(ValidationError, match=r"^partition 'b' has columns \['bmi', 'age', 'label'\], not 'a''s$"):
        load_partitions(tmp_path)
    with pytest.raises(ValidationError, match="partition 'y' has columns"):
        as_fleet([a, replace(a, client_id="y", label_name="y")])
    assert [p.feature_names for p in as_fleet([a, replace(a, client_id="z")])] == [("age", "bmi")] * 2
