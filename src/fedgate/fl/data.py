"""Client dataset partitions and their CSV interchange format.

Partition files are ``client_<id>.csv`` with a header row; every column
but the last holds a feature, the last column holds the label.
"""

from __future__ import annotations

import csv
import re
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from ..errors import ValidationError

_PARTITION_FILE_RE = re.compile(r"^client_(?P<cid>[A-Za-z0-9._-]+)\.csv$")


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

    def select_features(self, names: tuple[str, ...]) -> "DatasetPartition":
        """Restrict to a subset of feature columns, preserving order of ``names``."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise ValidationError(f"unknown feature names {missing} for client {self.client_id}")
        idx = [self.feature_names.index(n) for n in names]
        return replace(self, features=self.features[:, idx], feature_names=tuple(names))


def _locked(a: np.ndarray) -> np.ndarray:
    """``a`` when neither it nor the ndarray owning its memory can be written (a row
    view of a locked pool), else a locked copy: a partition never aliases writable data."""
    owner = a
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if a.flags.writeable or owner.flags.writeable or owner.base is not None:
        a = a.copy()
        a.flags.writeable = False
    return a


def check_shared_feature_space(partitions: list[DatasetPartition]) -> int:
    """All partitions in one federation must share the feature dimension."""
    if not partitions:
        raise ValidationError("at least one partition is required")
    dims = {p.feature_dim for p in partitions}
    if len(dims) != 1:
        raise ValidationError(f"partitions disagree on feature dimension: {sorted(dims)}")
    ids = [p.client_id for p in partitions]
    if len(set(ids)) != len(ids):
        raise ValidationError("duplicate client ids across partitions")
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
    match = _PARTITION_FILE_RE.match(path.name)
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


def load_partitions(directory: Path) -> list[DatasetPartition]:
    """Load each ``client_<id>.csv`` in a directory, sorted by id, as rows of one locked pool."""
    directory = Path(directory)
    paths = sorted(p for p in directory.iterdir() if _PARTITION_FILE_RE.match(p.name))
    if not paths:
        raise ValidationError(f"no client_<id>.csv files found in {directory}")
    partitions = sorted((load_partition(p) for p in paths), key=lambda p: p.client_id)
    check_shared_feature_space(partitions)
    x, y = np.concatenate([p.features for p in partitions]), np.concatenate([p.labels for p in partitions])
    x.flags.writeable = y.flags.writeable = False
    ends = np.cumsum([p.size for p in partitions])
    return [replace(p, features=x[e - p.size : e], labels=y[e - p.size : e]) for p, e in zip(partitions, ends)]
