"""RAPID — Re-ranking with personAlized dIversification (the full model).

Wires together the listwise relevance estimator (Sec. III-B), the
personalized diversity estimator (Sec. III-C), and a deterministic or
probabilistic re-ranker head (Sec. III-D).  Relevance and diversity are
fused by the head's MLP, so the relevance-diversity tradeoff is learned
end-to-end from clicks rather than set by a hyper-parameter.

The named variants of the ablation study (Sec. IV-E2) are exposed through
:class:`RapidConfig` / :func:`make_rapid_variant`:

================  ==========================================================
RAPID-pro         default: Bi-LSTM relevance, LSTM diversity, probabilistic
RAPID-det         probabilistic head -> deterministic head
RAPID-RNN         personalized diversity estimator removed
RAPID-mean        per-topic LSTM -> mean pooling
RAPID-trans       Bi-LSTM -> transformer encoder
================  ==========================================================
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .. import nn
from ..data.batching import RerankBatch
from ..nn import Tensor
from .diversity import PersonalizedDiversityEstimator
from .heads import DeterministicHead, ProbabilisticHead
from .relevance import ListwiseRelevanceEstimator

__all__ = ["RapidConfig", "RapidModel", "make_rapid_variant", "RAPID_VARIANTS"]


@dataclass(frozen=True)
class RapidConfig:
    """Architecture configuration for :class:`RapidModel`."""

    user_dim: int
    item_dim: int
    num_topics: int
    hidden: int = 16
    relevance_encoder: str = "bilstm"  # or "transformer"
    diversity_aggregator: str = "lstm"  # or "mean"
    marginal_mode: str = "sequential"  # or "leave_one_out" (literal Eq. 5)
    coverage_kind: str = "probabilistic"  # or "saturating" / "log"
    use_diversity: bool = True
    probabilistic: bool = True
    use_initial_scores: bool = True
    seed: int = 0


class RapidModel(nn.Module):
    """End-to-end RAPID scoring function ``F`` (paper Eq. 1)."""

    def __init__(self, config: RapidConfig) -> None:
        super().__init__()
        self.config = config
        rng = np.random.default_rng(config.seed)
        self.relevance = ListwiseRelevanceEstimator(
            config.user_dim,
            config.item_dim,
            config.num_topics,
            hidden=config.hidden,
            encoder=config.relevance_encoder,
            use_initial_scores=config.use_initial_scores,
            rng=rng,
        )
        head_input = self.relevance.output_dim
        if config.use_diversity:
            self.diversity = PersonalizedDiversityEstimator(
                config.user_dim,
                config.item_dim,
                config.num_topics,
                hidden=config.hidden,
                aggregator=config.diversity_aggregator,
                marginal_mode=config.marginal_mode,
                coverage_kind=config.coverage_kind,
                rng=rng,
            )
            head_input += config.num_topics
        else:
            self.diversity = None
        head_cls = ProbabilisticHead if config.probabilistic else DeterministicHead
        self.head = head_cls(head_input, hidden=config.hidden, rng=rng)

    # ------------------------------------------------------------------
    def _fused_features(self, batch: RerankBatch) -> Tensor:
        """[H_R, Delta_R] — the head input of Eq. 7/8."""
        relevance = self.relevance(batch)
        if self.diversity is None:
            return relevance
        diversity = self.diversity(batch)
        return Tensor.concatenate([relevance, diversity], axis=2)

    def forward(
        self, batch: RerankBatch, rng: np.random.Generator | None = None
    ) -> Tensor:
        """Training-time attraction probabilities ``phi_R`` (B, L)."""
        return self.head(self._fused_features(batch), rng=rng)

    def inference_scores(self, batch: RerankBatch) -> np.ndarray:
        """Ranking scores at inference (UCB for the probabilistic head).

        Serves each submodule's forward through its ``infer`` entry point
        (float32, no tape; float64 on the training kernels under
        ``use_infer(False)``); scores always come back float64.
        """
        features = self.relevance.infer(batch)
        if self.diversity is not None:
            features = np.concatenate([features, self.diversity.infer(batch)], axis=2)
        return self.head.infer_scores(features).astype(np.float64, copy=False)

    def preference_distribution(self, batch: RerankBatch) -> np.ndarray:
        """theta_hat for inspection / the case study (Fig. 5)."""
        if self.diversity is None:
            raise RuntimeError("this variant has no diversity estimator")
        with nn.no_grad():
            return self.diversity.preference_distribution(batch).numpy()

    # ------------------------------------------------------------------
    # Greedy sequential inference (extension).
    #
    # The theory section (Sec. V-A) analyzes RAPID as a *greedy* list
    # constructor: each position picks the item with the best score given
    # the items already placed.  The deep model's default inference sorts
    # by a single forward pass instead; this method implements the greedy
    # construction by recomputing each candidate's personalized diversity
    # gain against the already-selected prefix.  The expensive encoders
    # (Bi-LSTM relevance H_R, preference theta_hat) run once; only the
    # cheap head is re-evaluated per step.
    # ------------------------------------------------------------------
    def greedy_rerank(self, batch: RerankBatch) -> np.ndarray:
        """(B, L) permutations built by greedy submodular selection."""
        if self.diversity is None:
            raise RuntimeError(
                "greedy inference needs the personalized diversity estimator"
            )
        relevance = self.relevance.infer(batch)
        theta = self.diversity.infer_preference(batch).astype(np.float64, copy=False)

        batch_size, length, _ = relevance.shape
        m = self.config.num_topics
        # All rows advance in lockstep: at step k every still-active row
        # holds k chosen items, so one batched head evaluation per position
        # replaces the per-row per-step Python loop.  The head scores each
        # item independently, so scoring the full (B, L) list and masking
        # out unavailable items reproduces the per-row remaining-set scores
        # exactly (ties break toward the lowest index in both versions).
        permutations = np.empty((batch_size, length), dtype=np.int64)
        available = batch.mask.copy()
        prefix_complement = np.ones((batch_size, m))
        valid_counts = available.sum(axis=1)
        for position in range(length):
            active = available.any(axis=1)
            if not active.any():
                break
            delta = (
                batch.coverage
                * prefix_complement[:, None, :]
                * theta[:, None, :]
            )
            scores = self.head.infer_scores(
                np.concatenate(
                    [relevance, delta.astype(relevance.dtype, copy=False)], axis=2
                )
            )
            scores = np.where(available, scores, -np.inf)
            picks = scores.argmax(axis=1)
            rows = np.flatnonzero(active)
            permutations[rows, position] = picks[rows]
            available[rows, picks[rows]] = False
            prefix_complement[rows] *= 1.0 - batch.coverage[rows, picks[rows]]
        for row in range(batch_size):
            invalid = np.flatnonzero(~batch.mask[row])
            permutations[row, valid_counts[row] :] = invalid
        return permutations


RAPID_VARIANTS: dict[str, dict] = {
    "rapid-pro": {},
    "rapid-det": {"probabilistic": False},
    "rapid-rnn": {"use_diversity": False},
    "rapid-mean": {"diversity_aggregator": "mean"},
    "rapid-trans": {"relevance_encoder": "transformer"},
}


def make_rapid_variant(name: str, base: RapidConfig) -> RapidModel:
    """Build one of the paper's named variants from a base configuration."""
    key = name.lower()
    if key not in RAPID_VARIANTS:
        raise ValueError(f"unknown variant {name!r}; choose from {sorted(RAPID_VARIANTS)}")
    return RapidModel(replace(base, **RAPID_VARIANTS[key]))
