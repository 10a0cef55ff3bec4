"""Click model interfaces."""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

__all__ = ["ClickModel"]


@runtime_checkable
class ClickModel(Protocol):
    """A user-behavior model that can simulate and score ranked lists."""

    def attraction_probabilities(
        self, user_id: int | np.ndarray, items: np.ndarray
    ) -> np.ndarray:
        """Per-position attraction probabilities of ordered lists.

        One user with an (L,) list gives (L,); (N,) users with (N, L)
        lists give (N, L).
        """

    def termination_probabilities(self, length: int) -> np.ndarray:
        """Per-position satisfied-termination probabilities."""

    def simulate(
        self, user_id: int, items: np.ndarray, rng: np.random.Generator
    ) -> np.ndarray:
        """Sample a binary click vector for the ordered list."""
