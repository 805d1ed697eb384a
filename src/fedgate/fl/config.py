"""Training configuration: loss specification and federation hyperparameters."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ValidationError

LOSS_KINDS = ("squared_error", "logistic")
WEIGHTINGS = ("proportional", "uniform")
BATCH_MODES = ("full", "minibatch")


@dataclass(frozen=True)
class LossSpec:
    """Which per-sample loss the federation minimizes, reduced as mean over samples."""

    kind: str
    feature_dim: int
    bias: bool = False

    def __post_init__(self) -> None:
        if self.kind not in LOSS_KINDS:
            raise ValidationError(f"unknown loss kind {self.kind!r}, expected one of {LOSS_KINDS}")
        if self.feature_dim < 1:
            raise ValidationError(f"feature_dim must be positive, got {self.feature_dim}")
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
        return cls(kind=data["kind"], feature_dim=int(data["featureDim"]), bias=data["bias"])


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
        if self.total_rounds < 1:
            raise ValidationError(f"total_rounds must be >= 1, got {self.total_rounds}")
        if self.total_clients < 1:
            raise ValidationError(f"total_clients must be >= 1, got {self.total_clients}")
        if not 1 <= self.subset_size <= self.total_clients:
            raise ValidationError(
                f"subset_size must lie in [1, {self.total_clients}], got {self.subset_size}"
            )
        if self.local_epochs < 1:
            raise ValidationError(f"local_epochs must be >= 1, got {self.local_epochs}")
        # Zero is allowed so a no-op step stays expressible; only negatives rejected.
        if self.learning_rate < 0:
            raise ValidationError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_mode not in BATCH_MODES:
            raise ValidationError(f"batch_mode must be one of {BATCH_MODES}, got {self.batch_mode!r}")
        size = self.batch_size
        if size is not None and (isinstance(size, bool) or not isinstance(size, int) or size < 1):
            raise ValidationError(f"batch_size must be null or an integer >= 1, got {size!r}")
        if self.batch_mode == "minibatch" and size is None:
            raise ValidationError("minibatch mode requires batch_size >= 1")
        if self.weighting not in WEIGHTINGS:
            raise ValidationError(f"weighting must be one of {WEIGHTINGS}, got {self.weighting!r}")
        if self.initial_weights is not None:
            if len(self.initial_weights) != self.loss.parameter_dim:
                raise ValidationError(
                    f"initial_weights has length {len(self.initial_weights)}, "
                    f"expected {self.loss.parameter_dim}"
                )
            object.__setattr__(self, "initial_weights", tuple(float(w) for w in self.initial_weights))

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
            total_rounds=int(data["totalRounds"]),
            total_clients=int(data["totalClients"]),
            subset_size=int(data["subsetSize"]),
            local_epochs=int(data["localEpochs"]),
            learning_rate=float(data["learningRate"]),
            loss=LossSpec.from_dict(data["loss"]),
            rng_seed=int(data.get("rngSeed", 0)),
            batch_mode=data.get("batchMode", "full"),
            batch_size=data.get("batchSize"),
            weighting=data.get("weighting", "proportional"),
            initial_weights=tuple(init) if init else None,
        )
