"""What a granted user may learn about the fleet's data before training.

Metadata only: per-client shape, label histogram, and a small rounded
preview. Raw datasets never cross this boundary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from ..errors import ValidationError
from ..fl import DatasetPartition


@dataclass(frozen=True)
class ClientDataSummary:
    client_id: str
    data_type: str
    feature_names: tuple[str, ...]
    label_name: str
    sample_count: int
    label_histogram: Mapping[str, int]

    def to_dict(self) -> dict:
        return {
            "clientId": self.client_id,
            "dataType": self.data_type,
            "featureNames": list(self.feature_names),
            "labelName": self.label_name,
            "sampleCount": self.sample_count,
            "labelHistogram": dict(sorted(self.label_histogram.items())),
        }


@dataclass(frozen=True)
class TrainingDataMetadata:
    service: str
    clients: tuple[ClientDataSummary, ...]
    preview: tuple[Mapping, ...]
    preview_limit: int

    def __post_init__(self) -> None:
        if len(self.preview) > self.preview_limit:
            raise ValidationError(
                f"{len(self.preview)} preview rows exceed limit {self.preview_limit}"
            )

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "clients": [c.to_dict() for c in self.clients],
            "preview": self.preview_dicts(),
            "previewLimit": self.preview_limit,
        }

    def preview_dicts(self) -> list[dict]:
        """The preview rows as plain dicts and lists, freshly copied on each call."""
        return [dict(row, features=list(row["features"])) for row in self.preview]


def _label_key(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def summarize_partitions(
    partitions: Sequence[DatasetPartition],
    service: str,
    preview_rows: int = 5,
    round_digits: int = 3,
) -> TrainingDataMetadata:
    """Build the client summaries plus a bounded, value-rounded preview, both read-only.

    Preview rows are drawn round-robin across clients so every partition
    contributes before any contributes twice.
    """
    if preview_rows < 0:
        raise ValidationError("preview_rows must be >= 0")
    summaries = []
    for p in sorted(partitions, key=lambda q: q.client_id):
        # count float values in C, then key each distinct value once, not each sample
        counts = Counter(p.labels.tolist())
        summaries.append(
            ClientDataSummary(
                client_id=p.client_id,
                data_type="tabular:float64",
                feature_names=p.feature_names,
                label_name=p.label_name,
                sample_count=p.size,
                label_histogram=MappingProxyType({_label_key(v): n for v, n in counts.items()}),
            )
        )

    preview: list[Mapping] = []
    ordered = sorted(partitions, key=lambda q: q.client_id)
    depth = 0
    while len(preview) < preview_rows:
        progressed = False
        for p in ordered:
            if len(preview) >= preview_rows:
                break
            if depth < p.size:
                row = {
                    "clientId": p.client_id,
                    "features": tuple(round(float(v), round_digits) for v in p.features[depth]),
                    "label": round(float(p.labels[depth]), round_digits),
                }
                preview.append(MappingProxyType(row))
                progressed = True
        if not progressed:
            break
        depth += 1

    return TrainingDataMetadata(
        service=service,
        clients=tuple(summaries),
        preview=tuple(preview),
        preview_limit=preview_rows,
    )
