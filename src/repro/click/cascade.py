"""Alternative click models: cascade and position-based (extension).

The paper's theory generalizes *cascade-model* bandits (Hiranandani et al.
2020; Li et al. 2020) to the multi-click DCM.  These two classical models
let us study how robust the re-rankers are when the simulated user behaves
differently from the DCM they implicitly assume:

- :class:`CascadeClickModel` — the user scans top-down and stops at the
  *first* click (at most one click per session).
- :class:`PositionBasedModel` — examination depends only on the position
  (no dependence on earlier clicks); clicks are independent across
  positions.

Both reuse the world's personalized attraction (relevance + diversity
blend), so only the *session dynamics* change.
"""

from __future__ import annotations

import numpy as np

from ..data.synthetic import SyntheticWorld
from ..utils.rng import make_rng
from ..utils.validation import check_in_range
from .dcm import DependentClickModel

__all__ = ["CascadeClickModel", "PositionBasedModel"]


class CascadeClickModel(DependentClickModel):
    """Cascade model: top-down scan, session ends at the first click.

    Shares the DCM's attraction probabilities (lambda blend of relevance
    and personalized diversity); the termination probability after a click
    is identically 1.
    """

    def __init__(self, world: SyntheticWorld, tradeoff: float = 0.5) -> None:
        super().__init__(world, tradeoff=tradeoff, base_termination=1.0,
                         termination_decay=1.0)

    def termination_probabilities(self, length: int) -> np.ndarray:
        return np.ones(length)

    def simulate(
        self,
        user_id: int,
        items: np.ndarray,
        rng: np.random.Generator | int | None,
        full_information: bool = False,
    ) -> np.ndarray:
        rng = make_rng(rng)
        items = np.asarray(items, dtype=np.int64)
        phi = self.attraction_probabilities(user_id, items)
        attracted = (rng.random(len(items)) < phi).astype(np.float64)
        if full_information:
            return attracted
        clicks = np.zeros(len(items))
        first = np.flatnonzero(attracted)
        if first.size:
            clicks[first[0]] = 1.0
        return clicks

    def expected_clicks(self, user_id: int, items: np.ndarray, k: int) -> float:
        """Expected clicks@k = P(first attractive item within top-k)."""
        phi = self.attraction_probabilities(user_id, items)[:k]
        return float(1.0 - np.prod(1.0 - phi))


class PositionBasedModel:
    """PBM: click iff (examined AND attracted); examination decays by rank.

    Examination probabilities follow the classical ``1 / rank^eta`` decay.
    Clicks at different positions are independent.
    """

    def __init__(
        self,
        world: SyntheticWorld,
        tradeoff: float = 0.5,
        examination_decay: float = 1.0,
    ) -> None:
        check_in_range(tradeoff, 0.0, 1.0, "tradeoff")
        if examination_decay < 0:
            raise ValueError("examination_decay must be >= 0")
        self._dcm = DependentClickModel(world, tradeoff=tradeoff)
        self.world = world
        self.tradeoff = tradeoff
        self.examination_decay = examination_decay

    def attraction_probabilities(
        self, user_id: int | np.ndarray, items: np.ndarray
    ) -> np.ndarray:
        """The DCM's attraction; broadcasts over (N,) users and (N, L) lists."""
        return self._dcm.attraction_probabilities(user_id, items)

    def examination_probabilities(self, length: int) -> np.ndarray:
        ranks = np.arange(1, length + 1, dtype=np.float64)
        return ranks**-self.examination_decay

    def termination_probabilities(self, length: int) -> np.ndarray:
        """PBM has no satisfied-exit; exposed for evaluator compatibility.

        Returns ``1 - examination`` shifted so the DCM-style satisfaction
        formula degrades gracefully; callers that understand PBM should use
        :meth:`examination_probabilities` directly.
        """
        return np.zeros(length)

    def simulate(
        self,
        user_id: int,
        items: np.ndarray,
        rng: np.random.Generator | int | None,
        full_information: bool = False,
    ) -> np.ndarray:
        rng = make_rng(rng)
        items = np.asarray(items, dtype=np.int64)
        phi = self.attraction_probabilities(user_id, items)
        attracted = (rng.random(len(items)) < phi).astype(np.float64)
        if full_information:
            return attracted
        examined = rng.random(len(items)) < self.examination_probabilities(len(items))
        return attracted * examined

    def expected_clicks(self, user_id: int, items: np.ndarray, k: int) -> float:
        phi = self.attraction_probabilities(user_id, items)[:k]
        exam = self.examination_probabilities(len(items))[:k]
        return float((phi * exam).sum())
