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
from ..errors import ValidationError, check_integer, check_real
from .data import PARTITION_FILE_RE, Fleet, save_partition

MANIFEST_NAME = "manifest.json"
# Rows of whole clients the generator's arithmetic takes at once; its temporaries
# are a block long.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class SyntheticSpec:
    n_clients: int
    samples_per_client: int
    feature_dim: int
    separability: float
    seed: int
    label_skew: float
    label_noise: float = 0.0

    def __post_init__(self) -> None:
        for name in ("n_clients", "samples_per_client", "feature_dim"):
            object.__setattr__(self, name, check_integer(name, getattr(self, name)))
        object.__setattr__(self, "seed", check_integer("seed", self.seed, None))
        for name in ("separability", "label_skew", "label_noise"):
            object.__setattr__(self, name, check_real(name, getattr(self, name)))
        if self.separability < 0:
            raise ValidationError("separability must be >= 0")
        if not 0 <= self.label_skew <= 1:
            raise ValidationError("label_skew must lie in [0, 1]")


def generate_partitions(spec: SyntheticSpec) -> tuple[Fleet, dict]:
    """The client fleet, one pool, plus a manifest recording the generator. Each
    client's draws go straight into the pool in client order; the arithmetic runs
    once per block of whole clients, in place, with one product per client as in a loop."""
    rng = np.random.default_rng([spec.seed & 0xFFFFFFFFFFFFFFFF, 0x64617461])
    direction = rng.normal(size=spec.feature_dim)
    direction /= np.linalg.norm(direction)

    k, n, d = spec.n_clients, spec.samples_per_client, spec.feature_dim
    skew, noise, step = spec.label_skew > 0 and k > 1, spec.label_noise > 0, max(1, _BLOCK_ROWS // n)
    pool_x, pool_y = np.empty((k * n, d)), np.empty(k * n)
    for first in range(0, k, step):
        c = min(step, k - first)
        rows = slice(first * n, (first + c) * n)
        x, y, u = pool_x[rows].reshape(c, n, d), pool_y[rows].reshape(c, n), np.empty((c, n))
        for i in range(c):
            rng.standard_normal(out=x[i])
            if skew:
                rng.random(out=u[i])
            if noise:
                rng.random(out=y[i])
        margins = np.matmul(x, direction)
        if skew:
            # Client i targets a positive-class share of 0.5 + skew*(i/(k-1) - 0.5).
            positive = u < 0.5 + spec.label_skew * (np.arange(first, first + c)[:, None] / (k - 1) - 0.5)
            x -= margins[..., None] * direction
            x += (np.abs(margins) * np.where(positive, 1.0, -1.0))[..., None] * direction
        else:
            positive = margins > 0
        # Push every point off the boundary along the hyperplane normal.
        x += np.where(positive, spec.separability, -spec.separability)[..., None] * direction
        y[...] = positive ^ (y < spec.label_noise) if noise else positive

    pool_x.flags.writeable = pool_y.flags.writeable = False
    names = tuple(f"x{j}" for j in range(d))
    starts, ids = np.arange(0, k * n, n), tuple(f"{i:03d}" for i in range(k))
    fleet = Fleet(pool_x, pool_y, starts, np.full(k, n), ids, names, "label")

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
    return fleet, manifest


def write_dataset(spec: SyntheticSpec, directory: Path) -> Path:
    """Generate and persist a dataset directory with its manifest. A directory that
    holds a partition file for an id this dataset does not write is refused first."""
    directory = Path(directory)
    fleet, manifest = generate_partitions(spec)
    ours = {f"client_{cid}.csv" for cid in fleet.ids}
    for path in sorted(directory.glob("client_*.csv")):
        if path.name not in ours and PARTITION_FILE_RE.fullmatch(path.name):
            raise ValidationError(f"{path} holds a partition this dataset does not write")
    for p in fleet:
        save_partition(p, directory)
    (directory / MANIFEST_NAME).write_bytes(canonical_json_bytes(manifest) + b"\n")
    return directory
