"""Functional helpers built on :class:`repro.nn.tensor.Tensor`.

These free functions mirror the small subset of ``torch.nn.functional`` used
by RAPID and its baselines: activations, fused losses, and masked softmax
for attention over padded lists.
"""

from __future__ import annotations

import numpy as np

from .tensor import Tensor, as_tensor

__all__ = [
    "sigmoid",
    "tanh",
    "relu",
    "softmax",
    "log_softmax",
    "masked_softmax",
    "binary_cross_entropy",
    "binary_cross_entropy_with_logits",
    "dropout",
]

_EPS = 1e-12


def sigmoid(x: Tensor) -> Tensor:
    return as_tensor(x).sigmoid()


def tanh(x: Tensor) -> Tensor:
    return as_tensor(x).tanh()


def relu(x: Tensor) -> Tensor:
    return as_tensor(x).relu()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return as_tensor(x).softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return as_tensor(x).log_softmax(axis=axis)


def masked_softmax(x: Tensor, mask: np.ndarray, axis: int = -1) -> Tensor:
    """Softmax over ``axis`` with positions where ``mask`` is False zeroed out.

    ``mask`` is a boolean array broadcastable to ``x.shape``; masked positions
    receive zero probability.  Rows that are fully masked produce zeros rather
    than NaNs.
    """
    x = as_tensor(x)
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    neg_inf = np.where(mask, 0.0, -1e30)
    shifted = x + Tensor(neg_inf)
    out = shifted.softmax(axis=axis)
    # Zero fully-masked rows (softmax of all -1e30 is uniform garbage).
    any_valid = mask.any(axis=axis, keepdims=True)
    return out * Tensor(np.where(any_valid, 1.0, 0.0))


def binary_cross_entropy(
    probs: Tensor, targets: np.ndarray, weight: np.ndarray | None = None
) -> Tensor:
    """Mean binary cross entropy on probabilities (Eq. 11 of the paper)."""
    probs = as_tensor(probs).clip(_EPS, 1.0 - _EPS)
    y = np.asarray(targets, dtype=np.float64)
    loss = -(Tensor(y) * probs.log() + Tensor(1.0 - y) * (1.0 - probs).log())
    if weight is not None:
        loss = loss * Tensor(np.asarray(weight, dtype=np.float64))
        denom = max(float(np.sum(weight)), _EPS)
        return loss.sum() * (1.0 / denom)
    return loss.mean()


def binary_cross_entropy_with_logits(
    logits: Tensor, targets: np.ndarray, weight: np.ndarray | None = None
) -> Tensor:
    """Numerically stable BCE on raw scores: max(x,0) - x*y + log(1+e^-|x|)."""
    logits = as_tensor(logits)
    y = Tensor(np.asarray(targets, dtype=np.float64))
    zeros = Tensor(np.zeros_like(logits.data))
    loss = (
        Tensor.where(logits.data > 0, logits, zeros)
        - logits * y
        + (1.0 + (-logits.abs()).exp()).log()
    )
    if weight is not None:
        loss = loss * Tensor(np.asarray(weight, dtype=np.float64))
        denom = max(float(np.sum(weight)), _EPS)
        return loss.sum() * (1.0 / denom)
    return loss.mean()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool) -> Tensor:
    """Inverted dropout: identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return as_tensor(x)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    keep = rng.random(as_tensor(x).shape) >= p
    scale = 1.0 / (1.0 - p)
    return as_tensor(x) * Tensor(keep * scale)
