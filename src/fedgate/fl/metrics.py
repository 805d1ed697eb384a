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

