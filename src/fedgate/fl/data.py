"""Client dataset partitions and their CSV interchange format.

Partition files are ``client_<id>.csv`` with a header row; every column
but the last holds a feature, the last column holds the label.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from ..errors import ValidationError

_PARTITION_FILE_RE = re.compile(r"client_(?P<cid>[A-Za-z0-9._-]+)\.csv")


@dataclass(frozen=True)
class DatasetPartition:
    """One client's local data: features, labels, and an opaque client id."""

    client_id: str
    features: np.ndarray = field(repr=False)
    labels: np.ndarray = field(repr=False)
    feature_names: tuple[str, ...] = ()
    label_name: str = "label"

    def __post_init__(self) -> None:
        x = np.asarray(self.features, dtype=np.float64)
        y = np.asarray(self.labels, dtype=np.float64)
        if x.ndim != 2:
            raise ValidationError(f"features must be 2-D, got shape {x.shape}")
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValidationError(
                f"labels shape {y.shape} does not match {x.shape[0]} feature rows"
            )
        if x.shape[0] < 1:
            raise ValidationError(f"partition {self.client_id!r} must hold at least one sample")
        if not self.client_id:
            raise ValidationError("client_id must be non-empty")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError(f"partition {self.client_id!r} holds non-finite values")
        names = self.feature_names or tuple(f"x{i}" for i in range(x.shape[1]))
        if len(names) != x.shape[1]:
            raise ValidationError(
                f"{len(names)} feature names for {x.shape[1]} feature columns"
            )
        object.__setattr__(self, "features", _locked(x))
        object.__setattr__(self, "labels", _locked(y))
        object.__setattr__(self, "feature_names", tuple(names))

    @property
    def size(self) -> int:
        return int(self.features.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


def _locked(a: np.ndarray) -> np.ndarray:
    """``a`` when it is, or is a read-only view of, a locked ndarray owning its memory,
    else a locked copy: a partition never aliases writable data. numpy points a view's
    ``base`` at the array owning its memory; over a ``bytearray`` that base has a base."""
    owner = a if a.base is None else a.base
    if a.flags.writeable or not isinstance(owner, np.ndarray) or owner.flags.writeable or owner.base is not None:
        a = a.copy()
        a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class Fleet:
    """Clients as row ranges of locked pools: client ``i`` holds rows ``starts[i] :
    starts[i] + sizes[i]`` of ``pools[owners[i]]``, named by ``columns[owners[i]]``.
    The generator and ``load_partitions`` lay a fleet in one pool, and ``apply_filter``
    keeps it there; partitions built by hand (``as_fleet``) are each a pool of their own, uncopied.
    Every pool is finite and locked: built from checked partitions or by the generator."""

    pools: tuple[tuple[np.ndarray, np.ndarray], ...]  # (rows, d) features, (rows,) labels
    owners: np.ndarray
    starts: np.ndarray
    sizes: np.ndarray
    ids: tuple[str, ...]
    columns: tuple[tuple[tuple[str, ...], str], ...]  # each pool's feature names and label name

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        """Each client as a partition over its rows, handed out without
        ``DatasetPartition``'s checks: the pools passed them when built."""
        for i, (o, s, n) in enumerate(zip(self.owners.tolist(), self.starts.tolist(), self.sizes.tolist())):
            (x, y), (names, label) = self.pools[o], self.columns[o]
            p = object.__new__(DatasetPartition)
            p.__dict__.update(client_id=self.ids[i], features=x[s : s + n], labels=y[s : s + n],
                              feature_names=names, label_name=label)
            yield p

    def __getitem__(self, i: int) -> DatasetPartition:
        """Client ``i``, handed out as ``__iter__`` hands it out."""
        (p,) = self.select([i])
        return p

    def select(self, index: Sequence[int]) -> Fleet:
        """The clients at ``index``, in that order."""
        ids = tuple(map(self.ids.__getitem__, index))
        return replace(self, owners=self.owners[index], starts=self.starts[index], sizes=self.sizes[index], ids=ids)

    def select_features(self, names: tuple[str, ...]) -> Fleet:
        """The columns ``names``, in that order, of each pool a client uses, gathered once."""
        pools, columns = list(self.pools), list(self.columns)
        for o in dict.fromkeys(self.owners.tolist()):
            (x, y), (have, label) = pools[o], columns[o]
            missing = [n for n in names if n not in have]
            if missing:
                raise ValidationError(f"unknown feature names {missing}")
            pools[o], columns[o] = (x.take([have.index(n) for n in names], axis=1), y), (tuple(names), label)
            pools[o][0].flags.writeable = False
        return replace(self, pools=tuple(pools), columns=tuple(columns))

    def packed(self) -> Fleet:
        """The clients' rows copied, in order, into one locked pool named as the first client's."""
        parts = list(self)
        x, y = np.concatenate([p.features for p in parts]), np.concatenate([p.labels for p in parts])
        x.flags.writeable = y.flags.writeable = False
        starts, columns = np.cumsum(self.sizes) - self.sizes, (self.columns[self.owners[0]],)
        return replace(self, pools=((x, y),), owners=0 * self.owners, starts=starts, columns=columns)


def as_fleet(partitions: Sequence[DatasetPartition]) -> Fleet:
    """Hand-built partitions as a fleet, in list order, the arrays of each a pool of its own."""
    check_shared_feature_space(partitions)
    pools, sizes = tuple((p.features, p.labels) for p in partitions), np.array([p.size for p in partitions])
    columns = tuple((p.feature_names, p.label_name) for p in partitions)
    return Fleet(pools, np.arange(len(pools)), 0 * sizes, sizes, tuple(p.client_id for p in partitions), columns)


def check_shared_feature_space(partitions: Sequence[DatasetPartition]) -> int:
    """All partitions in one federation must share the feature dimension."""
    if not partitions:
        raise ValidationError("at least one partition is required")
    dims = {p.feature_dim for p in partitions}
    if len(dims) != 1:
        raise ValidationError(f"partitions disagree on feature dimension: {sorted(dims)}")
    return dims.pop()


def save_partition(partition: DatasetPartition, directory: Path) -> Path:
    """Write one partition as ``client_<id>.csv``."""
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"client_{partition.client_id}.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([*partition.feature_names, partition.label_name])
        for row, label in zip(partition.features, partition.labels):
            writer.writerow([repr(float(v)) for v in row] + [repr(float(label))])
    return path


def load_partition(path: Path) -> DatasetPartition:
    """One ``client_<id>.csv``; a cell that is not a number, a row of the wrong
    width or a row the csv module refuses is a ValidationError naming its line."""
    match = _PARTITION_FILE_RE.fullmatch(path.name)
    if not match:
        raise ValidationError(f"{path.name!r} does not match client_<id>.csv")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise ValidationError(f"{path} is empty")
            if len(header) < 2:
                raise ValidationError(f"{path} needs at least one feature column and a label column")
            rows = []
            for row in filter(None, reader):  # blank lines are skipped
                if len(row) != len(header):
                    raise ValueError(f"{len(row)} fields under a header of {len(header)}")
                rows.append([float(v) for v in row])
        except (ValueError, csv.Error) as exc:  # csv.Error: an oversized field
            raise ValidationError(f"cannot read partition {path} line {reader.line_num}: {exc}") from None
    if not rows:
        raise ValidationError(f"{path} holds no data rows")
    data = np.array(rows, dtype=np.float64)
    return DatasetPartition(
        client_id=match.group("cid"),
        features=data[:, :-1],
        labels=data[:, -1],
        feature_names=tuple(header[:-1]),
        label_name=header[-1],
    )


def load_partitions(directory: Path) -> Fleet:
    """Load each ``client_<id>.csv`` in a directory, sorted by id, as a fleet whose
    clients are rows of one locked pool when their headers agree."""
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if _PARTITION_FILE_RE.fullmatch(p.name))
    if not paths:
        raise ValidationError(f"no client_<id>.csv files found in {directory}")
    fleet = as_fleet(sorted((load_partition(p) for p in paths), key=lambda p: p.client_id))
    return fleet.packed() if len(set(fleet.columns)) == 1 else fleet
