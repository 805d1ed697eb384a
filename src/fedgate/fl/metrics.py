"""Per-round training metrics and their CSV stream format."""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import IO

from ..errors import ValidationError

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
    """Rows of a round-metrics CSV; a malformed line or a non-UTF-8 byte is a ValidationError.

    A row must hold exactly the fields ``CsvMetricsWriter`` writes for the
    values read from it, so a blank line or a re-spelled number is refused.
    """
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None or tuple(header) != METRICS_HEADER:
                raise ValueError(f"not a round-metrics CSV (header {header})")
            out = []
            for row in reader:
                if len(row) != len(METRICS_HEADER):
                    raise ValueError(f"line {reader.line_num} has {len(row)} fields")
                metrics = RoundMetrics(
                    round_index=int(row[0]),
                    global_loss=float(row[1]),
                    train_accuracy=float(row[2]),
                    selected_clients=tuple(c for c in row[3].split(";") if c),
                )
                if metrics.to_row() != row:
                    raise ValueError(f"line {reader.line_num} is not as its writer writes it")
                out.append(metrics)
    except ValueError as exc:  # the int and float parsers raise it too, as does decoding
        raise ValidationError(f"cannot read metrics {path}: {exc}") from None
    return out
