"""Shared utilities: RNG management and validation."""

from .rng import make_rng, spawn_rngs
from .validation import check_in_range, check_positive, check_probability_matrix

__all__ = [
    "check_in_range",
    "check_positive",
    "check_probability_matrix",
    "make_rng",
    "spawn_rngs",
]
