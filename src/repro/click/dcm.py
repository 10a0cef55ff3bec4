"""Dependent Click Model (DCM) simulator, evaluator, and MLE estimator.

The paper's semi-synthetic protocol (Sec. IV-B1) uses a DCM as the
environment: at position ``k`` the user examines item ``v_k``, clicks with
attraction probability ``phi(v_k)``, and — if she clicked — leaves satisfied
with termination probability ``eps(k)``; otherwise she continues to the next
position.  Attraction blends relevance and *personalized* diversity:

    phi(v_k) = lambda * alpha(v_k) + (1 - lambda) * rho_u . zeta(v_k)

where ``zeta(v_k)`` is the incremental topic coverage of ``v_k`` over the
items ranked above it and ``rho_u`` is the user's hidden per-topic diversity
weight.  This module provides:

- :class:`DependentClickModel` — the simulator tied to a synthetic world;
- closed-form expected clicks / satisfaction under a DCM (used by the
  low-variance evaluation mode);
- :func:`fit_dcm` — the classical last-click maximum-likelihood estimator
  of per-item attraction and per-position termination (Guo et al., 2009).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.coverage import incremental_coverage
from ..data.synthetic import SyntheticWorld
from ..utils.rng import make_rng
from ..utils.validation import check_in_range

__all__ = [
    "DependentClickModel",
    "coverage_gain",
    "expected_clicks_curve",
    "expected_clicks_per_position",
    "satisfaction_probability",
    "fit_dcm",
    "FittedDCM",
]


#: Per-position incremental topic coverage ``zeta`` of an ordered list:
#: ``zeta[k, j] = tau[k, j] * prod_{i<k}(1 - tau[i, j])``, the probability
#: that item ``k`` is the first to cover topic ``j``.
coverage_gain = incremental_coverage


def expected_clicks_per_position(phi: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Expected click at each position under the DCM, over ``(..., L)``.

    The user continues past position ``k`` with probability
    ``1 - phi_k * eps_k``; the expected click at position ``k`` is the
    examination probability ``prod_{i<k}(1 - phi_i * eps_i)`` times
    ``phi_k``.  ``eps`` may be longer than the lists (it is cut to L).
    """
    phi = np.asarray(phi, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)[..., : phi.shape[-1]]
    survive = np.cumprod(1.0 - phi * eps, axis=-1)
    examine = np.concatenate(
        [np.ones_like(phi[..., :1]), survive[..., :-1]], axis=-1
    )
    return examine * phi


def expected_clicks_curve(phi: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Cumulative expected clicks after each position under the DCM."""
    return np.cumsum(expected_clicks_per_position(phi, eps), axis=-1)


def satisfaction_probability(phi: np.ndarray, eps: np.ndarray) -> np.ndarray:
    """Cumulative satisfaction ``1 - prod_{i<=k}(1 - eps_i * phi_i)``."""
    phi = np.asarray(phi, dtype=np.float64)
    eps = np.asarray(eps, dtype=np.float64)
    survive = np.cumprod(1.0 - eps[..., : phi.shape[-1]] * phi, axis=-1)
    return 1.0 - survive


class DependentClickModel:
    """DCM environment bound to a :class:`SyntheticWorld`.

    Parameters
    ----------
    world:
        Source of ground-truth relevance ``alpha`` and user diversity
        weights ``rho``.
    tradeoff:
        The relevance/diversity blend ``lambda`` in [0, 1]; 1.0 means clicks
        are purely relevance-driven (paper's ads scenario), 0.5 a balanced
        news-feed scenario.
    base_termination / termination_decay:
        Position-wise satisfied-termination probabilities
        ``eps(k) = base * decay^(k-1)``; decay <= 1 keeps them
        non-increasing, matching the theory's assumption.
    """

    def __init__(
        self,
        world: SyntheticWorld,
        tradeoff: float = 0.5,
        base_termination: float = 0.5,
        termination_decay: float = 0.92,
    ) -> None:
        check_in_range(tradeoff, 0.0, 1.0, "tradeoff")
        check_in_range(base_termination, 0.0, 1.0, "base_termination")
        check_in_range(termination_decay, 0.0, 1.0, "termination_decay")
        self.world = world
        self.tradeoff = tradeoff
        self.base_termination = base_termination
        self.termination_decay = termination_decay

    # ------------------------------------------------------------------
    def attraction_probabilities(
        self, user_id: int | np.ndarray, items: np.ndarray
    ) -> np.ndarray:
        """phi(v_k) for ordered lists (paper Sec. IV-B1 blend).

        Takes one user with an (L,) list, or (N,) users with (N, L) lists.
        """
        items = np.asarray(items, dtype=np.int64)
        users = np.asarray(user_id, dtype=np.int64)
        alpha = self.world.relevance_matrix()[users[..., None], items]
        zeta = incremental_coverage(self.world.catalog.coverage[items])
        rho = self.world.population.diversity_weight[users]
        diversity = (zeta @ rho[..., None])[..., 0]
        phi = self.tradeoff * alpha + (1.0 - self.tradeoff) * diversity
        return np.clip(phi, 0.0, 1.0)

    def termination_probabilities(self, length: int) -> np.ndarray:
        positions = np.arange(length)
        return self.base_termination * self.termination_decay**positions

    def simulate(
        self,
        user_id: int | np.ndarray,
        items: np.ndarray,
        rng: np.random.Generator | int | None,
        full_information: bool = False,
    ) -> np.ndarray:
        """Sample binary clicks.

        With ``full_information=False`` (the realistic DCM session),
        positions after a satisfied exit get 0 — their labels are censored
        by termination.  With ``full_information=True`` the attraction
        Bernoulli outcome is logged for *every* position, i.e. the
        environment reveals what the user would have clicked had she
        examined everything.  The semi-synthetic training protocol uses the
        latter to compensate for the small synthetic scale (see DESIGN.md);
        evaluation never uses sampled clicks in ``expected`` mode.

        Takes one user with an (L,) list, or (N,) users with (N, L) lists.
        The rows draw from ``rng`` in order, so N lists in one call get the
        clicks of N single-list calls.
        """
        rng = make_rng(rng)
        items = np.asarray(items, dtype=np.int64)
        phi = self.attraction_probabilities(user_id, items)
        if full_information:
            # One (N, L) draw is the stream of N draws of L.
            return (rng.random(phi.shape) < phi).astype(np.float64)
        length = items.shape[-1]
        eps = self.termination_probabilities(length)
        clicks = np.zeros(phi.shape)
        # Each session draws its attractions, then one termination draw per
        # click, before the next session draws.
        for row_phi, row_clicks in zip(np.atleast_2d(phi), np.atleast_2d(clicks)):
            attracted = rng.random(length) < row_phi
            for k in range(length):
                if attracted[k]:
                    row_clicks[k] = 1.0
                    if rng.random() < eps[k]:
                        break
        return clicks

    # ------------------------------------------------------------------
    # Evaluation helpers (the "tilde" quantities of Sec. IV-B2)
    # ------------------------------------------------------------------
    def expected_clicks(self, user_id: int, items: np.ndarray, k: int) -> float:
        phi = self.attraction_probabilities(user_id, items)
        eps = self.termination_probabilities(len(items))
        return float(expected_clicks_curve(phi, eps)[min(k, len(items)) - 1])

    def satisfaction(self, user_id: int, items: np.ndarray, k: int) -> float:
        phi = self.attraction_probabilities(user_id, items)
        eps = self.termination_probabilities(len(items))
        return float(satisfaction_probability(phi, eps)[min(k, len(items)) - 1])


@dataclass
class FittedDCM:
    """Parameters recovered by :func:`fit_dcm`.

    Attributes
    ----------
    attraction:
        (num_items,) MLE of each item's attraction probability.
    termination:
        (max_length,) MLE of the position-wise termination probability.
    impressions:
        (num_items,) number of examined impressions per item (support).
    """

    attraction: np.ndarray
    termination: np.ndarray
    impressions: np.ndarray


def fit_dcm(
    lists: list[np.ndarray],
    clicks: list[np.ndarray],
    num_items: int,
    smoothing: float = 1.0,
) -> FittedDCM:
    """Last-click maximum-likelihood DCM estimation (Guo et al., 2009).

    Under the DCM, every position up to and including the *last* click is
    examined.  The attraction MLE of item ``v`` is clicks/examined
    impressions; the termination MLE at position ``k`` is the fraction of
    clicks at ``k`` that were the session's final click.  Laplace
    ``smoothing`` regularizes rare items/positions.
    """
    if len(lists) != len(clicks):
        raise ValueError("lists and clicks must align")
    max_length = max((len(l) for l in lists), default=0)
    click_count = np.zeros(num_items)
    examine_count = np.zeros(num_items)
    last_click_at = np.zeros(max_length)
    clicks_at = np.zeros(max_length)

    for items, y in zip(lists, clicks):
        items = np.asarray(items, dtype=np.int64)
        y = np.asarray(y)
        clicked_positions = np.flatnonzero(y > 0.5)
        # All positions are examined if there is no click; otherwise the
        # session provably examined everything up to the last click, and we
        # follow the standard convention of treating the tail as examined
        # only when the user did not terminate (no click).
        horizon = len(items) if len(clicked_positions) == 0 else (
            clicked_positions[-1] + 1
        )
        examined = items[:horizon]
        examine_count[examined] += 1
        clicked_items = items[clicked_positions]
        click_count[clicked_items] += 1
        for position in clicked_positions:
            clicks_at[position] += 1
        if len(clicked_positions) > 0:
            last_click_at[clicked_positions[-1]] += 1

    attraction = (click_count + smoothing) / (examine_count + 2.0 * smoothing)
    termination = (last_click_at + smoothing) / (clicks_at + 2.0 * smoothing)
    return FittedDCM(
        attraction=attraction,
        termination=termination,
        impressions=examine_count,
    )
