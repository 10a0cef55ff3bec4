"""SetRank — permutation-invariant re-ranking (Pang et al., SIGIR 2020).

A stack of induced multi-head self-attention blocks (IMSAB) encodes the
candidate *set* without position embeddings, so the learned scoring function
is permutation-equivariant.  The initial-ranker score is still available as
an item feature (SetRank's "ordinal" variant folds rank information into
features rather than the architecture).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batching import RerankBatch
from ..data.schema import Catalog, Population
from ..nn import Tensor
from .neural import NeuralReranker, list_input_features

__all__ = ["SetRankReranker"]


class _SetRankNetwork(nn.Module):
    def __init__(
        self,
        input_dim: int,
        hidden: int,
        num_blocks: int,
        num_heads: int,
        num_inducing: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        model_dim = 2 * hidden
        self.input_proj = nn.Linear(input_dim, model_dim, rng=rng)
        self.blocks = nn.ModuleList(
            [
                nn.InducedSetAttention(
                    model_dim, num_heads, num_inducing=num_inducing, rng=rng
                )
                for _ in range(num_blocks)
            ]
        )
        self.head = nn.MLP([model_dim, hidden, 1], activation="relu", rng=rng)

    def forward(self, batch: RerankBatch) -> Tensor:
        x = self.input_proj(Tensor(list_input_features(batch)))
        for block in self.blocks:
            x = block(x, mask=batch.mask)
        b, length, _ = x.shape
        return self.head(x).reshape(b, length)


class SetRankReranker(NeuralReranker):
    """Induced set-attention re-ranker (listwise loss, no positions)."""

    name = "setrank"
    loss = "listwise"

    def __init__(
        self,
        num_blocks: int = 2,
        num_heads: int = 2,
        num_inducing: int = 4,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        self.num_blocks = num_blocks
        self.num_heads = num_heads
        self.num_inducing = num_inducing

    def build_network(self, catalog: Catalog, population: Population) -> nn.Module:
        input_dim = (
            population.feature_dim + catalog.feature_dim + catalog.num_topics + 1
        )
        return _SetRankNetwork(
            input_dim,
            self.hidden,
            self.num_blocks,
            self.num_heads,
            self.num_inducing,
            np.random.default_rng(self.train_config.seed),
        )
