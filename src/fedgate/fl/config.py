"""Training configuration: loss specification and federation hyperparameters."""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from numbers import Integral, Real

from ..errors import ValidationError

LOSS_KINDS = ("squared_error", "logistic")
WEIGHTINGS = ("proportional", "uniform")
BATCH_MODES = ("full", "minibatch")


def _integer(name: str, value, minimum: int | None = 1) -> int:
    """``value`` as an int of at least ``minimum``; bools, text and fractions are refused."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(f"{name} must be >= {minimum}, got {value}")
    return int(value)


def _real(name: str, value) -> float:
    """``value`` as a finite float; bools, text, NaN, infinities and overflowing ints are refused."""
    if isinstance(value, bool) or not isinstance(value, Real) or not abs(value) <= sys.float_info.max:
        raise ValidationError(f"{name} must be a finite number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class LossSpec:
    """Which per-sample loss the federation minimizes, reduced as mean over samples."""

    kind: str
    feature_dim: int
    bias: bool = False

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}, expected one of {LOSS_KINDS}")
        object.__setattr__(self, "feature_dim", _integer("feature_dim", self.feature_dim))
        if not isinstance(self.bias, bool):
            raise ValidationError(f"bias must be true or false, got {self.bias!r}")

    @property
    def parameter_dim(self) -> int:
        """Model vector length: feature dimension plus one when bias is enabled."""
        return self.feature_dim + (1 if self.bias else 0)

    def to_dict(self) -> dict:
        return {"kind": self.kind, "featureDim": self.feature_dim, "bias": self.bias}

    @classmethod
    def from_dict(cls, data: dict) -> "LossSpec":
        return cls(kind=data["kind"], feature_dim=data["featureDim"], bias=data["bias"])


@dataclass(frozen=True)
class FederationConfig:
    """Everything needed to determinize one federated training run."""

    total_rounds: int
    total_clients: int
    subset_size: int
    local_epochs: int
    learning_rate: float
    loss: LossSpec
    rng_seed: int = 0
    batch_mode: str = "full"
    batch_size: int | None = None
    weighting: str = "proportional"
    initial_weights: tuple[float, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        for name in ("total_rounds", "total_clients", "subset_size", "local_epochs"):
            object.__setattr__(self, name, _integer(name, getattr(self, name)))
        object.__setattr__(self, "rng_seed", _integer("rng_seed", self.rng_seed, None))
        if self.subset_size > self.total_clients:
            raise ValidationError(
                f"subset_size must lie in [1, {self.total_clients}], got {self.subset_size}"
            )
        # Zero is allowed so a no-op step stays expressible; only negatives rejected.
        object.__setattr__(self, "learning_rate", _real("learning_rate", self.learning_rate))
        if self.learning_rate < 0:
            raise ValidationError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_mode not in BATCH_MODES:
            raise ValidationError(f"batch_mode must be one of {BATCH_MODES}, got {self.batch_mode!r}")
        if self.batch_size is not None:
            object.__setattr__(self, "batch_size", _integer("batch_size", self.batch_size))
        if self.batch_mode == "minibatch" and self.batch_size is None:
            raise ValidationError("minibatch mode requires batch_size >= 1")
        if self.weighting not in WEIGHTINGS:
            raise ValidationError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if self.initial_weights is not None:
            if len(self.initial_weights) != self.loss.parameter_dim:
                raise ValidationError(
                    f"initial_weights has length {len(self.initial_weights)}, "
                    f"expected {self.loss.parameter_dim}"
                )
            weights = tuple(_real("initial_weights", w) for w in self.initial_weights)
            object.__setattr__(self, "initial_weights", weights)

    def to_dict(self) -> dict:
        return {
            "totalRounds": self.total_rounds,
            "totalClients": self.total_clients,
            "subsetSize": self.subset_size,
            "localEpochs": self.local_epochs,
            "learningRate": self.learning_rate,
            "loss": self.loss.to_dict(),
            "rngSeed": self.rng_seed,
            "batchMode": self.batch_mode,
            "batchSize": self.batch_size,
            "weighting": self.weighting,
            "initialWeights": list(self.initial_weights) if self.initial_weights else None,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FederationConfig":
        init = data.get("initialWeights")
        return cls(
            total_rounds=data["totalRounds"],
            total_clients=data["totalClients"],
            subset_size=data["subsetSize"],
            local_epochs=data["localEpochs"],
            learning_rate=data["learningRate"],
            loss=LossSpec.from_dict(data["loss"]),
            rng_seed=data.get("rngSeed", 0),
            batch_mode=data.get("batchMode", "full"),
            batch_size=data.get("batchSize"),
            weighting=data.get("weighting", "proportional"),
            initial_weights=tuple(init) if init else None,
        )
