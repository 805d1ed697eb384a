"""Per-round training metrics and their CSV stream format."""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import zip_longest
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

    The file must hold exactly the text ``CsvMetricsWriter`` writes for the
    rows read from it, so a blank line, a re-spelled or quoted number, a line
    ended by a line feed alone, or a last line with no end is refused, its
    line named.
    """
    try:
        text = Path(path).read_bytes().decode()
        reader = csv.reader(io.StringIO(text, newline=""))
        next(reader, None)  # the header, which the comparison below checks
        out = []
        for row in reader:
            if len(row) != len(METRICS_HEADER):
                raise ValueError(f"line {reader.line_num} has {len(row)} fields")
            clients = tuple(c for c in row[3].split(";") if c)
            out.append(RoundMetrics(int(row[0]), float(row[1]), float(row[2]), clients))
        written = io.StringIO(newline="")
        csv.writer(written).writerows([METRICS_HEADER, *(m.to_row() for m in out)])
        lines = zip_longest(text.splitlines(True), written.getvalue().splitlines(True))
        for number, (read, wrote) in enumerate(lines, 1):
            if read != wrote:
                raise ValueError(f"line {number} is not as its writer writes it")
    except (ValueError, csv.Error) as exc:  # bad numbers and UTF-8 too; csv.Error: an oversized field
        raise ValidationError(f"cannot read metrics {path}: {exc}") from None
    return out
