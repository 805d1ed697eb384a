"""What a granted user may learn about the fleet's data before training.

Metadata only: per-client shape, label histogram, and a preview of
``PREVIEW_ROWS`` rows rounded to ``PREVIEW_DIGITS`` places (constants, not
options: each has one value in use). Raw datasets never cross this boundary.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice

from ..fl import Fleet

PREVIEW_ROWS = 5
PREVIEW_DIGITS = 3


def _label_key(value: float) -> str:
    return str(int(value)) if float(value).is_integer() else repr(float(value))


def summarize_partitions(fleet: Fleet, service: str) -> dict:
    """The ``/data/metadata`` body: client summaries plus a bounded, value-rounded preview.

    Plain JSON, each label histogram sorted by key, but for ``featureNames``:
    the partition's own tuple, which encodes as an array and is not held twice.
    Preview rows are the first ``PREVIEW_ROWS`` cells of a depth-major walk
    over the clients, so every partition contributes before any contributes twice.
    """
    ordered = sorted(fleet, key=lambda q: q.client_id)
    clients = []
    for p in ordered:
        # count float values in C, then key each distinct value once, not each sample
        counts = Counter(p.labels.tolist())
        clients.append(
            {
                "clientId": p.client_id,
                "dataType": "tabular:float64",
                "featureNames": p.feature_names,
                "labelName": p.label_name,
                "sampleCount": p.size,
                "labelHistogram": dict(sorted((_label_key(v), n) for v, n in counts.items())),
            }
        )

    # every partition holds a row at depth 0, so the k-th cell lies at most k deep
    cells = ((p, depth) for depth in range(PREVIEW_ROWS) for p in ordered if depth < p.size)
    preview = [
        {
            "clientId": p.client_id,
            "features": [round(float(v), PREVIEW_DIGITS) for v in p.features[depth]],
            "label": round(float(p.labels[depth]), PREVIEW_DIGITS),
        }
        for p, depth in islice(cells, PREVIEW_ROWS)
    ]
    return {"service": service, "clients": clients, "preview": preview, "previewLimit": PREVIEW_ROWS}


def copy_preview(rows: list[dict]) -> list[dict]:
    """The preview rows, copied down to their feature lists."""
    return [dict(row, features=list(row["features"])) for row in rows]


def copy_summary(body: dict) -> dict:
    """The summary body, copied down to each list and dict, feature names into a list."""
    clients = [
        dict(c, featureNames=list(c["featureNames"]), labelHistogram=dict(c["labelHistogram"]))
        for c in body["clients"]
    ]
    return dict(body, clients=clients, preview=copy_preview(body["preview"]))
