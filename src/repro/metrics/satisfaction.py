"""Satisfaction metric satis@k under the DCM (paper Sec. IV-B2).

``satis@k = 1 - (1/n) sum_l prod_{i<=k} (1 - eps_l(i) * phi_l(v_i))`` —
the probability the user leaves satisfied within the top-k.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .utility import padded_rows

__all__ = ["satis_at_k"]


def satis_at_k(
    attraction: Sequence[np.ndarray] | np.ndarray,
    termination: Sequence[np.ndarray] | np.ndarray,
    k: int,
) -> float:
    """Average satisfied-exit probability within the top-k positions.

    Parameters
    ----------
    attraction:
        Per-request attraction probabilities ``phi_l(v_i)`` in ranked order:
        an (N, L) array, zero-padded past each list's end, or a sequence.
    termination:
        Shared (L,) termination probabilities ``eps(i)``, or per-request
        ``eps_l(i)`` as an (N, L) array or a sequence.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    phi = padded_rows(attraction)[:, :k]
    if isinstance(termination, np.ndarray) and termination.ndim == 1:
        eps = np.asarray(termination, dtype=np.float64)[: phi.shape[1]]
    else:
        eps = padded_rows(termination)[:, : phi.shape[1]]
    return float((1.0 - np.prod(1.0 - eps * phi, axis=1)).mean())
