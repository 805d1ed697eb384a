"""What a granted user may learn about the fleet's data before training.

Metadata only: per-client shape, label histogram, and a preview of
``PREVIEW_ROWS`` rows rounded to ``PREVIEW_DIGITS`` places (constants, not
options: each has one value in use). Raw datasets never cross this boundary.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import islice
from types import MappingProxyType
from typing import Mapping, Sequence

from ..fl import DatasetPartition

PREVIEW_ROWS = 5
PREVIEW_DIGITS = 3


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

    def to_dict(self) -> dict:
        return {
            "service": self.service,
            "clients": [c.to_dict() for c in self.clients],
            "preview": self.preview_dicts(),
            "previewLimit": PREVIEW_ROWS,
        }

    def preview_dicts(self) -> list[dict]:
        """The preview rows as plain dicts and lists, freshly copied on each call."""
        return [dict(row, features=list(row["features"])) for row in self.preview]


def _label_key(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def summarize_partitions(
    partitions: Sequence[DatasetPartition], service: str
) -> TrainingDataMetadata:
    """Build the client summaries plus a bounded, value-rounded preview, both read-only.

    Preview rows are the first ``PREVIEW_ROWS`` cells of a depth-major walk
    over the clients, so every partition contributes before any contributes twice.
    """
    ordered = sorted(partitions, key=lambda q: q.client_id)
    summaries = []
    for p in ordered:
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

    # every partition holds a row at depth 0, so the k-th cell lies at most k deep
    cells = ((p, depth) for depth in range(PREVIEW_ROWS) for p in ordered if depth < p.size)
    preview = tuple(
        MappingProxyType(
            {
                "clientId": p.client_id,
                "features": tuple(round(float(v), PREVIEW_DIGITS) for v in p.features[depth]),
                "label": round(float(p.labels[depth]), PREVIEW_DIGITS),
            }
        )
        for p, depth in islice(cells, PREVIEW_ROWS)
    )
    return TrainingDataMetadata(service=service, clients=tuple(summaries), preview=preview)
