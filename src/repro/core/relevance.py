"""Listwise relevance estimator (paper Sec. III-B).

Each candidate ``R(i)`` is embedded as ``e_i = [x_u, x_{R(i)}, tau_{R(i)}]``
(optionally plus the initial-ranker score) and encoded bidirectionally so
the representation ``h_i`` captures cross-item interactions with items
ranked both before and after position ``i``.  The Bi-LSTM can be swapped for
a transformer encoder (the RAPID-trans ablation of Sec. IV-E2).
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batching import RerankBatch, normalized_initial_scores
from ..nn import Tensor

__all__ = ["ListwiseRelevanceEstimator"]


class ListwiseRelevanceEstimator(nn.Module):
    """Encodes the initial list into contextual relevance representations.

    Parameters
    ----------
    user_dim, item_dim, num_topics:
        Feature dimensions of the batch arrays.
    hidden:
        Recurrent hidden size ``q_h``; the output is ``2 * q_h`` per item.
    encoder:
        ``"bilstm"`` (paper default) or ``"transformer"`` (ablation).
    use_initial_scores:
        Whether to append the initial-ranker score to each item embedding.
    """

    def __init__(
        self,
        user_dim: int,
        item_dim: int,
        num_topics: int,
        hidden: int = 16,
        encoder: str = "bilstm",
        use_initial_scores: bool = True,
        num_heads: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if encoder not in ("bilstm", "transformer"):
            raise ValueError("encoder must be 'bilstm' or 'transformer'")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.encoder_kind = encoder
        self.use_initial_scores = use_initial_scores
        input_dim = user_dim + item_dim + num_topics + int(use_initial_scores)
        self.output_dim = 2 * hidden
        if encoder == "bilstm":
            self.encoder = nn.BiLSTM(input_dim, hidden, rng=rng)
        else:
            self.input_proj = nn.Linear(input_dim, 2 * hidden, rng=rng)
            self.encoder = nn.TransformerEncoderLayer(
                2 * hidden, num_heads, rng=rng
            )
            # Learned position embeddings (transformers need explicit order).
            self.position_table = nn.Embedding(256, 2 * hidden, rng=rng)

    def forward(self, batch: RerankBatch) -> Tensor:
        """Return (B, L, 2*hidden) listwise relevance representations."""
        items = Tensor(self._assemble(batch))
        if self.encoder_kind == "bilstm":
            return self.encoder(items, mask=batch.mask)
        positions = np.tile(np.arange(batch.list_length), (batch.batch_size, 1))
        projected = self.input_proj(items) + self.position_table(positions)
        return self.encoder(projected, mask=batch.mask)

    def _assemble(self, batch: RerankBatch) -> np.ndarray:
        """The per-item embedding matrix ``e_i`` as one raw array."""
        user = np.broadcast_to(
            batch.user_features[:, None, :],
            (batch.batch_size, batch.list_length, batch.user_features.shape[-1]),
        )
        parts = [user, batch.item_features, batch.coverage]
        if self.use_initial_scores:
            parts.append(normalized_initial_scores(batch)[:, :, None])
        return np.concatenate(parts, axis=2)
