"""PRM — Personalized Re-ranking Model (Pei et al., RecSys 2019).

Items (with their initial-ranker scores as the personalized prior) plus
learned position embeddings pass through transformer encoder blocks; an MLP
head emits scores trained with the listwise softmax cross entropy.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batching import RerankBatch
from ..data.schema import Catalog, Population
from ..nn import Tensor
from .neural import NeuralReranker, list_input_features

__all__ = ["PRMReranker"]


class _PRMNetwork(nn.Module):
    def __init__(
        self,
        input_dim: int,
        hidden: int,
        num_blocks: int,
        num_heads: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        model_dim = 2 * hidden
        self.input_proj = nn.Linear(input_dim, model_dim, rng=rng)
        self.positions = nn.Embedding(256, model_dim, rng=rng)
        self.blocks = nn.ModuleList(
            [
                nn.TransformerEncoderLayer(model_dim, num_heads, rng=rng)
                for _ in range(num_blocks)
            ]
        )
        self.head = nn.MLP([model_dim, hidden, 1], activation="relu", rng=rng)

    def forward(self, batch: RerankBatch) -> Tensor:
        x = self.input_proj(Tensor(list_input_features(batch)))
        position_ids = np.tile(
            np.arange(batch.list_length), (batch.batch_size, 1)
        )
        x = x + self.positions(position_ids)
        for block in self.blocks:
            x = block(x, mask=batch.mask)
        b, length, _ = x.shape
        return self.head(x).reshape(b, length)


class PRMReranker(NeuralReranker):
    """Transformer re-ranker with position embeddings (listwise loss)."""

    name = "prm"
    loss = "listwise"

    def __init__(self, num_blocks: int = 2, num_heads: int = 2, **kwargs) -> None:
        super().__init__(**kwargs)
        self.num_blocks = num_blocks
        self.num_heads = num_heads

    def build_network(self, catalog: Catalog, population: Population) -> nn.Module:
        input_dim = (
            population.feature_dim + catalog.feature_dim + catalog.num_topics + 1
        )
        return _PRMNetwork(
            input_dim,
            self.hidden,
            self.num_blocks,
            self.num_heads,
            np.random.default_rng(self.train_config.seed),
        )
