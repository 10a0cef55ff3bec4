"""SRGA — Scope-aware Re-ranking with Gated Attention (Qian et al., WSDM 2022).

Refines the self-attention structure with (i) a unidirectional branch
modeling top-down browsing and (ii) a local branch restricted to a window of
neighboring items, fused by a learned gate.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batching import RerankBatch
from ..data.schema import Catalog, Population
from ..nn import Tensor
from .neural import NeuralReranker, list_input_features

__all__ = ["SRGAReranker"]


class _SRGANetwork(nn.Module):
    def __init__(
        self,
        input_dim: int,
        hidden: int,
        num_blocks: int,
        num_heads: int,
        window: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        model_dim = 2 * hidden
        self.input_proj = nn.Linear(input_dim, model_dim, rng=rng)
        self.positions = nn.Embedding(256, model_dim, rng=rng)
        self.blocks = nn.ModuleList(
            [
                nn.GatedLocalAttention(model_dim, num_heads, window=window, rng=rng)
                for _ in range(num_blocks)
            ]
        )
        self.head = nn.MLP([model_dim, hidden, 1], activation="relu", rng=rng)

    def forward(self, batch: RerankBatch) -> Tensor:
        x = self.input_proj(Tensor(list_input_features(batch)))
        position_ids = np.tile(np.arange(batch.list_length), (batch.batch_size, 1))
        x = x + self.positions(position_ids)
        for block in self.blocks:
            x = block(x)
        b, length, _ = x.shape
        return self.head(x).reshape(b, length)


class SRGAReranker(NeuralReranker):
    """Gated unidirectional + local attention re-ranker (pointwise loss)."""

    name = "srga"
    loss = "pointwise"

    def __init__(
        self, num_blocks: int = 1, num_heads: int = 2, window: int = 2, **kwargs
    ) -> None:
        super().__init__(**kwargs)
        self.num_blocks = num_blocks
        self.num_heads = num_heads
        self.window = window

    def build_network(self, catalog: Catalog, population: Population) -> nn.Module:
        input_dim = (
            population.feature_dim + catalog.feature_dim + catalog.num_topics + 1
        )
        return _SRGANetwork(
            input_dim,
            self.hidden,
            self.num_blocks,
            self.num_heads,
            self.window,
            np.random.default_rng(self.train_config.seed),
        )
