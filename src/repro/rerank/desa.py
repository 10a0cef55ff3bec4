"""DESA — Diversifying search results with self-attention (Qin et al., CIKM 2020).

Jointly estimates relevance and (non-personalized) diversity with two
self-attention branches: the relevance branch encodes item features, the
diversity branch encodes the items' topic-coverage vectors so attention
reflects topical dissimilarity.  Branch outputs are fused by an MLP and the
model is trained with a pairwise loss, following the original paper.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batching import RerankBatch
from ..data.schema import Catalog, Population
from ..nn import Tensor
from .neural import NeuralReranker, list_input_features

__all__ = ["DESAReranker"]


class _DESANetwork(nn.Module):
    def __init__(
        self,
        input_dim: int,
        num_topics: int,
        hidden: int,
        num_heads: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        model_dim = 2 * hidden
        self.relevance_proj = nn.Linear(input_dim, model_dim, rng=rng)
        self.relevance_attn = nn.TransformerEncoderLayer(model_dim, num_heads, rng=rng)
        self.diversity_proj = nn.Linear(num_topics, model_dim, rng=rng)
        self.diversity_attn = nn.TransformerEncoderLayer(model_dim, num_heads, rng=rng)
        self.fusion = nn.MLP([2 * model_dim, hidden, 1], activation="relu", rng=rng)

    def forward(self, batch: RerankBatch) -> Tensor:
        relevance = self.relevance_attn(
            self.relevance_proj(Tensor(list_input_features(batch))), mask=batch.mask
        )
        diversity = self.diversity_attn(
            self.diversity_proj(Tensor(batch.coverage)), mask=batch.mask
        )
        fused = Tensor.concatenate([relevance, diversity], axis=2)
        b, length, _ = fused.shape
        return self.fusion(fused).reshape(b, length)


class DESAReranker(NeuralReranker):
    """Dual self-attention relevance + diversity re-ranker (pairwise loss)."""

    name = "desa"
    loss = "pairwise"

    def __init__(self, num_heads: int = 2, **kwargs) -> None:
        super().__init__(**kwargs)
        self.num_heads = num_heads

    def build_network(self, catalog: Catalog, population: Population) -> nn.Module:
        input_dim = (
            population.feature_dim + catalog.feature_dim + catalog.num_topics + 1
        )
        return _DESANetwork(
            input_dim,
            catalog.num_topics,
            self.hidden,
            self.num_heads,
            np.random.default_rng(self.train_config.seed),
        )
