"""Layer normalization."""

from __future__ import annotations

import numpy as np

from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["LayerNorm"]


class LayerNorm(Module):
    """Normalizes the last axis to zero mean / unit variance, then scales."""

    def __init__(self, normalized_dim: int, eps: float = 1e-5) -> None:
        super().__init__()
        if normalized_dim <= 0:
            raise ValueError("normalized_dim must be positive")
        self.normalized_dim = normalized_dim
        self.eps = eps
        self.gamma = Parameter(np.ones(normalized_dim))
        self.beta = Parameter(np.zeros(normalized_dim))

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_dim:
            raise ValueError(
                f"LayerNorm expected last dim {self.normalized_dim}, "
                f"got {x.shape[-1]}"
            )
        mean = x.mean(axis=-1, keepdims=True)
        centered = x - mean
        var = (centered * centered).mean(axis=-1, keepdims=True)
        normed = centered * (var + self.eps) ** -0.5
        return normed * self.gamma + self.beta
