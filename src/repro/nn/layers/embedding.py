"""Lookup-table embedding layer."""

from __future__ import annotations

import numpy as np

from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["Embedding"]


class Embedding(Module):
    """Maps integer ids to dense vectors via a trainable table.

    Index ``padding_idx`` (if given) is initialized to zeros and always
    receives zero gradient, matching the PyTorch convention used for padded
    behavior sequences.
    """

    def __init__(
        self,
        num_embeddings: int,
        embedding_dim: int,
        padding_idx: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if num_embeddings <= 0 or embedding_dim <= 0:
            raise ValueError("Embedding dimensions must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)
        table = rng.normal(0.0, 0.1, size=(num_embeddings, embedding_dim))
        if padding_idx is not None:
            if not 0 <= padding_idx < num_embeddings:
                raise ValueError(
                    f"padding_idx {padding_idx} out of range [0, {num_embeddings})"
                )
            table[padding_idx] = 0.0
        self.num_embeddings = num_embeddings
        self.embedding_dim = embedding_dim
        self.padding_idx = padding_idx
        self.weight = Parameter(table)

    def forward(self, ids) -> Tensor:
        ids = np.asarray(ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= self.num_embeddings):
            raise IndexError(
                f"embedding ids out of range [0, {self.num_embeddings}): "
                f"min={ids.min()}, max={ids.max()}"
            )
        out = self.weight[ids]
        if self.padding_idx is not None:
            mask = (ids != self.padding_idx).astype(np.float64)[..., None]
            out = out * Tensor(mask)
        return out
