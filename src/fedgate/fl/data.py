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

from ..errors import ValidationError, first_repeat

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
        x = np.array(self.features, dtype=np.float64)  # a copy: a partition aliases no caller's data
        y = np.array(self.labels, dtype=np.float64)
        # Rank, row count and names are ``load_partition``'s to check: it builds every program's partitions.
        if y.ndim != 1 or y.shape[0] != x.shape[0]:
            raise ValidationError(
                f"labels shape {y.shape} does not match {x.shape[0]} feature rows"
            )
        if not self.client_id:
            raise ValidationError("client_id must be non-empty")
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ValidationError(f"partition {self.client_id!r} holds non-finite values")
        names = self.feature_names or tuple(f"x{i}" for i in range(x.shape[1]))
        columns = (*names, self.label_name)
        twice = first_repeat(columns)
        if twice is not None:
            raise ValidationError(f"partition {self.client_id!r} names two columns {twice!r}")
        x.flags.writeable = y.flags.writeable = False
        object.__setattr__(self, "features", x)
        object.__setattr__(self, "labels", y)
        object.__setattr__(self, "feature_names", tuple(names))

    @property
    def size(self) -> int:
        return int(self.features.shape[0])

    @property
    def feature_dim(self) -> int:
        return int(self.features.shape[1])


@dataclass(frozen=True, eq=False)
class Fleet:
    """Clients as row ranges of one locked pool: client ``i`` holds rows ``starts[i] :
    starts[i] + sizes[i]`` of ``features`` and ``labels``, and every client names its
    columns ``feature_names`` and ``label_name``. The pool is finite and locked: copied
    from checked partitions (``as_fleet``) or written by the generator."""

    features: np.ndarray  # (rows, d)
    labels: np.ndarray  # (rows,)
    starts: np.ndarray
    sizes: np.ndarray
    ids: tuple[str, ...]
    feature_names: tuple[str, ...]
    label_name: str

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        """Each client as a partition over its rows, handed out without
        ``DatasetPartition``'s checks: the pool passed them when built."""
        x, y = self.features, self.labels
        for cid, s, n in zip(self.ids, self.starts.tolist(), self.sizes.tolist()):
            p = object.__new__(DatasetPartition)
            p.__dict__.update(client_id=cid, features=x[s : s + n], labels=y[s : s + n],
                              feature_names=self.feature_names, label_name=self.label_name)
            yield p

    def __getitem__(self, i: int) -> DatasetPartition:
        """Client ``i``, handed out as ``__iter__`` hands it out."""
        (p,) = self.select([i])
        return p

    def select(self, index: Sequence[int]) -> Fleet:
        """The clients at ``index``, in that order."""
        ids = tuple(map(self.ids.__getitem__, index))
        return replace(self, starts=self.starts[index], sizes=self.sizes[index], ids=ids)

    def select_features(self, names: tuple[str, ...]) -> Fleet:
        """The columns ``names``, in that order, gathered once."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise ValidationError(f"unknown feature names {missing}")
        x = self.features.take([self.feature_names.index(n) for n in names], axis=1)
        x.flags.writeable = False
        return replace(self, features=x, feature_names=tuple(names))


def as_fleet(partitions: Sequence[DatasetPartition]) -> Fleet:
    """Hand-built partitions as a fleet: their rows copied, in list order, into one
    locked pool. Each must name its columns as the first does."""
    if not partitions:
        raise ValidationError("at least one partition is required")
    first = partitions[0]
    for p in partitions:
        if (p.feature_names, p.label_name) != (first.feature_names, first.label_name):
            header = [*p.feature_names, p.label_name]
            raise ValidationError(f"partition {p.client_id!r} has columns {header}, not {first.client_id!r}'s")
    x, y = np.concatenate([p.features for p in partitions]), np.concatenate([p.labels for p in partitions])
    x.flags.writeable = y.flags.writeable = False
    sizes, ids = np.array([p.size for p in partitions]), tuple(p.client_id for p in partitions)
    return Fleet(x, y, np.cumsum(sizes) - sizes, sizes, ids, first.feature_names, first.label_name)


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
    """Load each ``client_<id>.csv`` in a directory, sorted by id, as one fleet
    (``as_fleet``): every file must have the first one's header."""
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if _PARTITION_FILE_RE.fullmatch(p.name))
    if not paths:
        raise ValidationError(f"no client_<id>.csv files found in {directory}")
    return as_fleet(sorted((load_partition(p) for p in paths), key=lambda p: p.client_id))
