"""Per-round training metrics and their CSV stream format."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import IO

METRICS_HEADER = ("round", "global_loss", "train_accuracy", "selected_clients")


@dataclass(frozen=True)
class RoundMetrics:
    round_index: int
    global_loss: float
    train_accuracy: float
    selected_clients: tuple[str, ...]

    def to_row(self) -> list[str]:
        return [
            str(self.round_index),
            repr(self.global_loss),
            repr(self.train_accuracy),
            ";".join(self.selected_clients),
        ]


class CsvMetricsWriter:
    """Streams RoundMetrics rows to a CSV file, one writer per job."""

    def __init__(self, path: Path):
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh: IO[str] = self.path.open("w", newline="")
        self._writer = csv.writer(self._fh)
        self._writer.writerow(METRICS_HEADER)

    def __call__(self, metrics: RoundMetrics) -> None:
        self._writer.writerow(metrics.to_row())
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "CsvMetricsWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_metrics_csv(path: Path) -> list[RoundMetrics]:
    with Path(path).open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != METRICS_HEADER:
            raise ValueError(f"{path} is not a round-metrics CSV (header {header})")
        out = []
        for row in reader:
            if not row:
                continue
            if len(row) != len(METRICS_HEADER):
                raise ValueError(f"{path} line {reader.line_num} has {len(row)} fields")
            out.append(
                RoundMetrics(
                    round_index=int(row[0]),
                    global_loss=float(row[1]),
                    train_accuracy=float(row[2]),
                    selected_clients=tuple(c for c in row[3].split(";") if c),
                )
            )
    return out
