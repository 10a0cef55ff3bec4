"""DLCM — Deep Listwise Context Model (Ai et al., SIGIR 2018).

A GRU encodes the top-ranked items in initial order; the final state is the
*local context* of the query.  Each item is scored by a bilinear interaction
between its GRU output and the local context, and the model is trained with
DLCM's attention rank loss (softmax cross entropy against the click
distribution).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batching import RerankBatch
from ..data.schema import Catalog, Population
from ..nn import Tensor
from .neural import NeuralReranker, list_input_features

__all__ = ["DLCMReranker"]


class _DLCMNetwork(nn.Module):
    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.gru = nn.GRU(input_dim, hidden, rng=rng)
        # Bilinear scoring phi(o_i, s_n) = o_i^T W s_n + w^T o_i.
        self.bilinear = nn.Linear(hidden, hidden, bias=False, rng=rng)
        self.direct = nn.Linear(hidden, 1, rng=rng)

    def forward(self, batch: RerankBatch) -> Tensor:
        inputs = Tensor(list_input_features(batch))
        outputs, final = self.gru(inputs, mask=batch.mask)
        b, length, hidden = outputs.shape
        # o_i^T W s_n for every position as one batched matmul:
        # (B, L, h) @ (B, h, 1) instead of a broadcast-mul + reduction pair.
        context = self.bilinear(final).reshape(b, hidden, 1)
        interaction = (outputs @ context).reshape(b, length)
        direct = self.direct(outputs).reshape(b, length)
        return interaction + direct


class DLCMReranker(NeuralReranker):
    """GRU local-context re-ranker with attention rank loss."""

    name = "dlcm"
    loss = "listwise"

    def build_network(self, catalog: Catalog, population: Population) -> nn.Module:
        input_dim = (
            population.feature_dim + catalog.feature_dim + catalog.num_topics + 1
        )
        return _DLCMNetwork(
            input_dim, self.hidden, np.random.default_rng(self.train_config.seed)
        )
