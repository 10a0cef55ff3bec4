"""Loss functions used across the re-ranking models.

- pointwise BCE (RAPID, Eq. 11; DLCM/PRM variants),
- pairwise hinge / BPR (DESA, SVMRank),
- listwise softmax cross entropy (an alternative listwise objective).
"""

from __future__ import annotations

import numpy as np

from . import functional as F
from .tensor import Tensor, as_tensor

__all__ = [
    "pointwise_bce",
    "pointwise_bce_with_logits",
    "pairwise_hinge",
    "pairwise_bpr",
    "listwise_softmax_ce",
]


def pointwise_bce(
    probs: Tensor, clicks: np.ndarray, mask: np.ndarray | None = None
) -> Tensor:
    """Paper Eq. 11: BCE between predicted attraction and observed clicks.

    ``mask`` marks valid (non-padded) positions of each list.
    """
    weight = None if mask is None else np.asarray(mask, dtype=np.float64)
    return F.binary_cross_entropy(probs, clicks, weight=weight)


def pointwise_bce_with_logits(
    logits: Tensor, clicks: np.ndarray, mask: np.ndarray | None = None
) -> Tensor:
    weight = None if mask is None else np.asarray(mask, dtype=np.float64)
    return F.binary_cross_entropy_with_logits(logits, clicks, weight=weight)


def _pair_matrices(
    scores: Tensor, clicks: np.ndarray, mask: np.ndarray | None
) -> tuple[Tensor, np.ndarray]:
    """Score differences s_i - s_j and indicator of (clicked_i, unclicked_j)."""
    scores = as_tensor(scores)
    clicks = np.asarray(clicks, dtype=np.float64)
    valid = (
        np.ones_like(clicks, dtype=bool)
        if mask is None
        else np.asarray(mask, dtype=bool)
    )
    pos = (clicks > 0.5) & valid
    neg = (clicks <= 0.5) & valid
    pair_mask = pos[:, :, None] & neg[:, None, :]
    batch, length = scores.shape
    diff = scores.reshape(batch, length, 1) - scores.reshape(batch, 1, length)
    return diff, pair_mask.astype(np.float64)


def pairwise_hinge(
    scores: Tensor,
    clicks: np.ndarray,
    mask: np.ndarray | None = None,
    margin: float = 1.0,
) -> Tensor:
    """Mean hinge loss over all (clicked, unclicked) pairs in each list."""
    diff, pair_mask = _pair_matrices(scores, clicks, mask)
    hinge = (Tensor(np.full(diff.shape, margin)) - diff).relu()
    total = max(float(pair_mask.sum()), 1.0)
    return (hinge * Tensor(pair_mask)).sum() * (1.0 / total)


def pairwise_bpr(
    scores: Tensor, clicks: np.ndarray, mask: np.ndarray | None = None
) -> Tensor:
    """Bayesian personalized ranking: -log sigmoid(s_pos - s_neg)."""
    diff, pair_mask = _pair_matrices(scores, clicks, mask)
    loss = -(diff.sigmoid().clip(1e-12, 1.0)).log()
    total = max(float(pair_mask.sum()), 1.0)
    return (loss * Tensor(pair_mask)).sum() * (1.0 / total)


def listwise_softmax_ce(
    scores: Tensor, clicks: np.ndarray, mask: np.ndarray | None = None
) -> Tensor:
    """Softmax cross entropy against the click distribution of each list."""
    clicks = np.asarray(clicks, dtype=np.float64)
    if mask is not None:
        log_probs = F.masked_softmax(scores, mask).clip(1e-12, 1.0).log()
        clicks = clicks * np.asarray(mask, dtype=np.float64)
    else:
        log_probs = scores.log_softmax(axis=-1)
    totals = clicks.sum(axis=-1, keepdims=True)
    target = np.divide(clicks, totals, out=np.zeros_like(clicks), where=totals > 0)
    per_list = -(Tensor(target) * log_probs).sum(axis=-1)
    return per_list.mean()

