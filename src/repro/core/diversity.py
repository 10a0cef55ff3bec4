"""Personalized diversity estimator (paper Sec. III-C).

Pipeline:

1. the user's behavior history arrives pre-split into per-topic sequences
   (``RerankBatch.topic_history_features``);
2. a (parameter-shared) LSTM encodes each topic sequence — the *intra-topic*
   interactions — and its final state ``t_j`` summarizes the user's interest
   in topic ``j``;
3. parameter-free self-attention over the stacked ``t_j`` captures
   *inter-topic* interactions (Eq. 2);
4. an MLP maps the attended matrix to the preference distribution
   ``theta_hat`` over topics (Eq. 3, softmax-normalized);
5. the marginal diversity ``d_R`` of each candidate (Eq. 5) is weighted
   elementwise by ``theta_hat`` to give the personalized diversity gain
   ``Delta_R`` (Eq. 6).

The RAPID-mean ablation replaces step 2 with mean pooling.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.batching import RerankBatch
from ..nn import Tensor, as_tensor
from .coverage import incremental_gain, marginal_diversity

__all__ = ["PersonalizedDiversityEstimator"]


class PersonalizedDiversityEstimator(nn.Module):
    """Learns ``theta_hat`` from behavior history and emits ``Delta_R``.

    Parameters
    ----------
    user_dim, item_dim, num_topics:
        Feature dimensions.
    hidden:
        LSTM hidden size ``q_h``.
    aggregator:
        ``"lstm"`` (paper default) or ``"mean"`` (RAPID-mean ablation).
    marginal_mode:
        How the marginal diversity ``d_R`` of Eq. 5 is instantiated:
        ``"sequential"`` (default) — the incremental coverage gain of each
        item given the items ranked above it, matching the sequential
        greedy construction of the paper's theory section (Sec. V-A) and
        the DCM's diversity bonus; ``"leave_one_out"`` — the literal
        ``c(R) - c(R \\ {R(i)})`` of Eq. 5, which degenerates to ~0 when
        every topic is covered multiple times in the candidate list.
    """

    def __init__(
        self,
        user_dim: int,
        item_dim: int,
        num_topics: int,
        hidden: int = 16,
        aggregator: str = "lstm",
        marginal_mode: str = "sequential",
        coverage_kind: str = "probabilistic",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if aggregator not in ("lstm", "mean"):
            raise ValueError("aggregator must be 'lstm' or 'mean'")
        if marginal_mode not in ("sequential", "leave_one_out"):
            raise ValueError(
                "marginal_mode must be 'sequential' or 'leave_one_out'"
            )
        if marginal_mode == "leave_one_out" and coverage_kind != "probabilistic":
            raise ValueError(
                "leave_one_out marginal diversity is defined for the "
                "probabilistic coverage function only"
            )
        self.marginal_mode = marginal_mode
        self.coverage_kind = coverage_kind
        rng = rng if rng is not None else np.random.default_rng(0)
        self.num_topics = num_topics
        self.hidden = hidden
        self.aggregator = aggregator
        input_dim = user_dim + item_dim
        if aggregator == "lstm":
            self.topic_encoder = nn.LSTM(input_dim, hidden, rng=rng)
        else:
            self.topic_proj = nn.Linear(input_dim, hidden, rng=rng)
        self.inter_topic_attention = nn.SelfAttention()
        self.preference_mlp = nn.MLP(
            [num_topics * hidden, hidden, num_topics], activation="relu", rng=rng
        )

    # ------------------------------------------------------------------
    def preference_distribution(self, batch: RerankBatch) -> Tensor:
        """theta_hat (B, m): the user's learned topic preference distribution."""
        b, m, d, _ = batch.topic_history_features.shape
        user = np.broadcast_to(
            batch.user_features[:, None, None, :],
            (b, m, d, batch.user_features.shape[-1]),
        )  # view, not a copy — concatenate below materializes once
        sequences = Tensor(
            np.concatenate([user, batch.topic_history_features], axis=3)
        )
        flat = sequences.reshape(b * m, d, sequences.shape[-1])
        flat_mask = batch.topic_history_mask.reshape(b * m, d)
        if self.aggregator == "lstm":
            _, final = self.topic_encoder(flat, mask=flat_mask)
        else:
            projected = self.topic_proj(flat)
            weights = flat_mask.astype(np.float64)
            denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
            final = (projected * Tensor(weights[:, :, None])).sum(axis=1) * Tensor(
                1.0 / denom
            )
        topics = final.reshape(b, m, self.hidden)  # t_j stacked (Sec. III-C)
        attended = self.inter_topic_attention(topics)  # Eq. 2
        theta_logits = self.preference_mlp(attended.reshape(b, m * self.hidden))
        return theta_logits.softmax(axis=-1)  # Eq. 3

    def forward(self, batch: RerankBatch, theta: Tensor | None = None) -> Tensor:
        """Delta_R (B, L, m): personalized diversity gain of each candidate.

        ``theta`` (B, m) defaults to :meth:`preference_distribution`.
        """
        if theta is None:
            theta = self.preference_distribution(batch)
        if self.marginal_mode == "sequential":
            gains = incremental_gain(batch.coverage, kind=self.coverage_kind)
        else:
            gains = marginal_diversity(batch.coverage)  # Eq. 5, (B, L, m)
        return Tensor(gains) * as_tensor(theta).reshape(
            batch.batch_size, 1, self.num_topics
        )  # Eq. 6

    def infer_preference(self, batch: RerankBatch) -> np.ndarray:
        """theta_hat (B, m) from :meth:`preference_distribution`, served."""
        return self._run_infer(self.preference_distribution, batch)

    def infer(self, batch: RerankBatch) -> np.ndarray:
        """Delta_R (B, L, m), served; theta_hat comes from
        :meth:`infer_preference` so the two stages are timed apart."""
        return super().infer(batch, theta=self.infer_preference(batch))
