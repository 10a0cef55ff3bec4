"""Seeded random-generator helpers for reproducible experiments."""

from __future__ import annotations

import numpy as np

__all__ = ["make_rng"]


def make_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Return a Generator; pass through if one is given already."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)

