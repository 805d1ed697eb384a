"""Synthetic linearly-structured datasets standing in for real client data.

Labels come from a known generating hyperplane; points are then pushed
away from the boundary by ``separability``, so high-separability tasks
are exactly linearly separable and accuracy oracles against the stored
hyperplane are exact. A label-skew parameter produces non-IID partitions
by biasing each client's class mix.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..canonical import canonical_json_bytes
from ..errors import ValidationError
from .config import _real
from .data import DatasetPartition, Fleet, save_partition

MANIFEST_NAME = "manifest.json"


@dataclass(frozen=True)
class SyntheticSpec:
    n_clients: int
    samples_per_client: int
    feature_dim: int
    separability: float
    seed: int
    label_skew: float = 0.0
    label_noise: float = 0.0

    def __post_init__(self) -> None:
        if self.n_clients < 1 or self.samples_per_client < 1 or self.feature_dim < 1:
            raise ValidationError("n_clients, samples_per_client, feature_dim must be positive")
        object.__setattr__(self, "separability", _real("separability", self.separability))
        if self.separability < 0:
            raise ValidationError("separability must be >= 0")
        if not 0 <= self.label_skew <= 1:
            raise ValidationError("label_skew must lie in [0, 1]")
        if not 0 <= self.label_noise < 0.5:
            raise ValidationError("label_noise must lie in [0, 0.5)")


def generate_partitions(spec: SyntheticSpec) -> tuple[list[DatasetPartition], dict]:
    """Build client partitions plus a manifest recording the generator."""
    rng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, 0x64617461])
    direction = rng.normal(size=spec.feature_dim)
    direction /= np.linalg.norm(direction)

    n, d = spec.samples_per_client, spec.feature_dim
    pool_x, pool_y = np.empty((spec.n_clients * n, d)), np.empty(spec.n_clients * n)
    for i in range(spec.n_clients):
        x = rng.normal(size=(n, d))
        margins = x @ direction
        labels = (margins > 0).astype(np.float64)

        if spec.label_skew > 0 and spec.n_clients > 1:
            # Client i targets a positive-class share of 0.5 + skew*(i/(n-1) - 0.5).
            target = 0.5 + spec.label_skew * (i / (spec.n_clients - 1) - 0.5)
            flip_to = rng.random(n) < target
            sign = np.where(flip_to, 1.0, -1.0)
            labels = (sign > 0).astype(np.float64)
            margins = np.abs(margins) * sign
            x = x - np.outer(x @ direction, direction) + np.outer(margins, direction)

        # Push every point off the boundary along the hyperplane normal.
        offset = spec.separability * np.where(labels > 0.5, 1.0, -1.0)
        pool_x[i * n : (i + 1) * n] = x + np.outer(offset, direction)

        if spec.label_noise > 0:
            flips = rng.random(n) < spec.label_noise
            labels = np.where(flips, 1.0 - labels, labels)
        pool_y[i * n : (i + 1) * n] = labels

    pool_x.flags.writeable = pool_y.flags.writeable = False
    k, names = spec.n_clients, tuple(f"x{j}" for j in range(d))
    starts, ids = np.arange(0, k * n, n), tuple(f"{i:03d}" for i in range(k))
    fleet = Fleet(((pool_x, pool_y),), np.zeros(k, dtype=np.int64), starts, np.full(k, n), ids, ((names, "label"),))

    manifest = {
        "generator": "linear-hyperplane",
        "hyperplane": [float(v) for v in direction],
        "nClients": spec.n_clients,
        "samplesPerClient": spec.samples_per_client,
        "featureDim": spec.feature_dim,
        "separability": spec.separability,
        "labelSkew": spec.label_skew,
        "labelNoise": spec.label_noise,
        "seed": spec.seed,
    }
    return list(fleet), manifest


def write_dataset(spec: SyntheticSpec, directory: Path) -> Path:
    """Generate and persist a dataset directory with its manifest."""
    directory = Path(directory)
    partitions, manifest = generate_partitions(spec)
    for p in partitions:
        save_partition(p, directory)
    (directory / MANIFEST_NAME).write_bytes(canonical_json_bytes(manifest) + b"\n")
    return directory
