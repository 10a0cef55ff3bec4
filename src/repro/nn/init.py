"""Weight initializers for the ``repro.nn`` substrate."""

from __future__ import annotations

import numpy as np

__all__ = ["xavier_uniform", "orthogonal", "zeros"]


def xavier_uniform(
    shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0
) -> np.ndarray:
    """Glorot/Xavier uniform: U(-a, a) with a = gain * sqrt(6 / (fan_in+fan_out))."""
    fan_in, fan_out = _fans(shape)
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape)


def orthogonal(shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """Orthogonal init (used for recurrent weight matrices)."""
    if len(shape) != 2:
        raise ValueError(f"orthogonal init requires a 2-D shape, got {shape}")
    rows, cols = shape
    a = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return q[:rows, :cols]


def zeros(shape: tuple[int, ...]) -> np.ndarray:
    return np.zeros(shape)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    if len(shape) < 1:
        raise ValueError("cannot compute fans of a scalar shape")
    if len(shape) == 1:
        return shape[0], shape[0]
    fan_in = int(np.prod(shape[1:]))
    fan_out = shape[0]
    return fan_in, fan_out
