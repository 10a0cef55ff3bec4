"""Diversity metric: div@k, the expected number of covered topics.

``div@k = (1/n) sum_l sum_j c_{l,j}(S_{1:k})`` with the probabilistic
coverage ``c_j(S) = 1 - prod_{v in S}(1 - tau_v^j)`` (paper Eq. 4).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..core.coverage import probabilistic_coverage
from .utility import padded_rows

__all__ = ["topic_coverage", "div_at_k"]


def topic_coverage(coverage: np.ndarray) -> np.ndarray:
    """Probabilistic coverage ``c(G)`` of an item set.

    Parameters
    ----------
    coverage:
        (|G|, m) coverage rows of the items in the set.

    Returns
    -------
    (m,): per-topic probability that at least one item covers the topic.
    """
    coverage = np.asarray(coverage, dtype=np.float64)
    if coverage.ndim != 2:
        raise ValueError("coverage must be (items, topics)")
    return probabilistic_coverage(coverage)


def div_at_k(list_coverages: Sequence[np.ndarray] | np.ndarray, k: int) -> float:
    """Mean summed topic coverage of the top-k of each re-ranked list.

    ``list_coverages`` is an (N, L, m) array, zero-padded past each list's
    end, or a sequence of (L_i, m) arrays.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    coverage = padded_rows(list_coverages, ndim=3)
    return float(probabilistic_coverage(coverage[:, :k]).sum(axis=-1).mean())
