"""Fully connected layer."""

from __future__ import annotations

import numpy as np

from .. import init
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["Linear"]


class Linear(Module):
    """Affine map ``y = x W^T + b`` applied to the last axis.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality of the last axis.
    bias:
        Whether to learn an additive bias.
    rng:
        Generator used for Xavier initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError("Linear dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_features = in_features
        self.out_features = out_features
        self.weight = Parameter(init.xavier_uniform((out_features, in_features), rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.in_features:
            raise ValueError(
                f"Linear expected last dim {self.in_features}, got {x.shape[-1]}"
            )
        out = x @ self.weight.T
        if self.bias is not None:
            out = out + self.bias
        return out
