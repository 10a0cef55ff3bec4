"""Dropout layer (module wrapper around the functional version)."""

from __future__ import annotations

import numpy as np

from .. import functional as F
from ..module import Module
from ..tensor import Tensor

__all__ = ["Dropout"]


class Dropout(Module):
    """Inverted dropout; active only in training mode."""

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = np.random.default_rng(seed)

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self._rng, self.training)
