"""Re-ranker output heads (paper Sec. III-D).

- :class:`DeterministicHead` — Eq. 7: an MLP over ``[H_R, Delta_R]`` emits
  the attraction probability of each item.
- :class:`ProbabilisticHead` — Eq. 8-10: separate mean and standard
  deviation MLPs; training samples scores with the VAE reparameterization
  trick, inference uses the upper confidence bound ``mu + sigma``.

Both heads work in logit space and squash with a sigmoid so the output is a
valid probability for the cross-entropy loss; both serve their
``inference_scores`` through ``infer_scores``.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..nn import Tensor

__all__ = ["DeterministicHead", "ProbabilisticHead"]


class _ServedScores:
    """The heads' serving entry point (a mixin for :class:`nn.Module`)."""

    def infer_scores(self, features: np.ndarray) -> np.ndarray:
        """:meth:`inference_scores` on raw (B, L, d) features, served."""
        return self._run_infer(self.inference_scores, features)


class DeterministicHead(_ServedScores, nn.Module):
    """Eq. 7: ``phi_R = sigmoid(MLP[H_R, Delta_R])``."""

    def __init__(
        self,
        input_dim: int,
        hidden: int = 16,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.score_mlp = nn.MLP([input_dim, hidden, 1], activation="relu", rng=rng)

    def forward(self, features: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        """Return (B, L) attraction probabilities."""
        b, length, _ = features.shape
        return self.score_mlp(features).reshape(b, length).sigmoid()

    def inference_scores(self, features: Tensor) -> Tensor:
        """Scores used for ranking at inference; same as forward here."""
        return self.forward(features)


class ProbabilisticHead(_ServedScores, nn.Module):
    """Eq. 8-10: reparameterized score sampling + UCB inference.

    The standard-deviation branch uses ``softplus`` so ``Sigma > 0``; it
    doubles as the model's uncertainty / exploration bonus, mirroring
    LinUCB-style bandits (and the linear analysis of Sec. V-A).
    """

    def __init__(
        self,
        input_dim: int,
        hidden: int = 16,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.mean_mlp = nn.MLP([input_dim, hidden, 1], activation="relu", rng=rng)
        self.std_mlp = nn.MLP([input_dim, hidden, 1], activation="relu", rng=rng)

    def _mean_std(self, features: Tensor) -> tuple[Tensor, Tensor]:
        b, length, _ = features.shape
        mean = self.mean_mlp(features).reshape(b, length)
        raw = self.std_mlp(features).reshape(b, length)
        std = (1.0 + raw.exp()).log()  # softplus > 0
        return mean, std

    def forward(self, features: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        """Training pass: sample ``phi = sigmoid(mu + xi * sigma)`` (Eq. 9)."""
        mean, std = self._mean_std(features)
        if self.training:
            rng = rng if rng is not None else np.random.default_rng(0)
            noise = rng.standard_normal(mean.shape)
            return (mean + Tensor(noise) * std).sigmoid()
        return mean.sigmoid()

    def inference_scores(self, features: Tensor) -> Tensor:
        """UCB scores ``sigmoid(mu + sigma)`` (Eq. 10)."""
        mean, std = self._mean_std(features)
        return (mean + std).sigmoid()
