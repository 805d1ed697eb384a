"""Model parameter vectors exchanged between clients and server."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from ..errors import ValidationError


@dataclass(frozen=True)
class ModelParameters:
    """A fixed-length vector of 64-bit real weights.

    Immutable value: the backing array is locked against writes, so one
    model can be handed to every client of a round without a copy.
    """

    weights: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.weights, dtype=np.float64)
        if arr.ndim != 1:
            raise ValidationError(f"model weights must be a 1-D vector, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("model weights contain NaN or Inf")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "weights", arr)

    @classmethod
    def zeros(cls, dimension: int) -> "ModelParameters":
        return cls(np.zeros(dimension, dtype=np.float64))

    @classmethod
    def from_values(cls, values: Iterable[float]) -> "ModelParameters":
        return cls(np.array(list(values), dtype=np.float64))

    @property
    def dimension(self) -> int:
        return int(self.weights.shape[0])

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.weights))) if self.dimension else 0.0

    def tolist(self) -> list[float]:
        return [float(w) for w in self.weights]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ModelParameters):
            return NotImplemented
        return np.array_equal(self.weights, other.weights)

    def __hash__(self) -> int:
        return hash(self.weights.tobytes())
