"""Shared utilities: RNG management, timing, validation."""

from .rng import make_rng, spawn_rngs
from .timer import Stopwatch
from .validation import check_in_range, check_positive, check_probability_matrix

__all__ = [
    "Stopwatch",
    "check_in_range",
    "check_positive",
    "check_probability_matrix",
    "make_rng",
    "spawn_rngs",
]
