"""Statistical significance testing for model comparisons (paper's t-tests)."""

from __future__ import annotations

import numpy as np

__all__ = ["paired_t_test", "is_significant_improvement"]


def paired_t_test(
    scores_a: np.ndarray, scores_b: np.ndarray
) -> tuple[float, float]:
    """Two-sided paired t-test; returns (t statistic, p-value).

    Degenerate inputs (fewer than two pairs, or identical scores) return
    ``(0.0, 1.0)`` instead of NaN so callers can compare safely.
    """
    a = np.asarray(scores_a, dtype=np.float64)
    b = np.asarray(scores_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError("paired test requires aligned score arrays")
    if a.size < 2 or np.allclose(a, b):
        return 0.0, 1.0
    diff = a - b
    if np.std(diff) < 1e-12:
        # Constant nonzero difference: zero variance, unbounded t statistic.
        return float(np.sign(diff.mean()) * np.inf), 0.0
    # scipy costs ~65 MB resident and ~1 s to import; only this call needs it.
    from scipy import stats

    t_stat, p_value = stats.ttest_rel(a, b)
    if np.isnan(p_value):
        return 0.0, 1.0
    return float(t_stat), float(p_value)


def is_significant_improvement(
    candidate: np.ndarray, baseline: np.ndarray, alpha: float = 0.05
) -> bool:
    """True when candidate's mean exceeds baseline's with p < alpha."""
    t_stat, p_value = paired_t_test(candidate, baseline)
    return bool(t_stat > 0 and p_value < alpha)
