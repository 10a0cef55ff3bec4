"""Utility metrics: click@k, ndcg@k, rev@k (paper Sec. IV-B2).

All functions take the requests' values ordered by the re-ranked position
(index 0 = top of the list) and average across requests.  The values come
either as one (N, L) array, zero-padded past each list's end, or as a
sequence of per-request arrays of any lengths, which :func:`padded_rows`
stacks into that array.  Zero is neutral for every metric here: a padded
position adds no click, gain, revenue, coverage or termination.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["clicks_at_k", "ndcg_at_k", "revenue_at_k"]


def padded_rows(
    values: Sequence[np.ndarray] | np.ndarray, ndim: int = 2
) -> np.ndarray:
    """Per-request values as one float64 array, zero-padded along axis 1.

    An array of rank ``ndim`` (requests first) is returned as it is; a
    sequence of per-request arrays of rank ``ndim - 1`` is stacked, the
    shorter ones zero-padded at the end of their first axis.
    """
    if isinstance(values, np.ndarray) and values.ndim == ndim:
        return values.astype(np.float64, copy=False)
    rows = [np.asarray(row, dtype=np.float64) for row in values]
    if any(row.ndim != ndim - 1 for row in rows):
        raise ValueError(f"each request's values must be {ndim - 1}-D")
    width = max((len(row) for row in rows), default=0)
    tail = rows[0].shape[1:] if rows else (0,) * (ndim - 2)
    out = np.zeros((len(rows), width) + tail)
    for index, row in enumerate(rows):
        out[index, : len(row)] = row
    return out


def clicks_at_k(clicks: Sequence[np.ndarray] | np.ndarray, k: int) -> float:
    """Mean total clicks in the top-k: ``(1/n) sum_l sum_{i<=k} y_l(v_i)``.

    Accepts realized binary clicks or expected per-position click
    probabilities (the low-variance evaluation mode).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    return float(padded_rows(clicks)[:, :k].sum(axis=1).mean())


def ndcg_at_k(relevance: Sequence[np.ndarray] | np.ndarray, k: int) -> float:
    """Mean NDCG@k with gains ``rel_i`` and log2 position discounts.

    The ideal ranking is computed per request from the same relevance
    vector (over the *whole* list, so a model is rewarded for pulling
    relevant items into the top-k).  Requests with no positive relevance
    contribute 0.  Relevance must be non-negative, so padding sorts last.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = padded_rows(relevance)
    depth = min(k, rows.shape[1])
    discounts = 1.0 / np.log2(np.arange(2, depth + 2))
    dcg = (rows[:, :depth] * discounts).sum(axis=1)
    ideal = np.sort(rows, axis=1)[:, ::-1][:, :depth]
    idcg = (ideal * discounts).sum(axis=1)
    positive = idcg > 0
    scores = np.where(positive, dcg / np.where(positive, idcg, 1.0), 0.0)
    return float(scores.mean())


def revenue_at_k(
    clicks: Sequence[np.ndarray] | np.ndarray,
    bids: Sequence[np.ndarray] | np.ndarray,
    k: int,
) -> float:
    """Mean bid-weighted clicks: ``(1/n) sum_l sum_{i<=k} b_l(v_i) y_l(v_i)``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    click_rows = padded_rows(clicks)
    bid_rows = padded_rows(bids)
    if len(click_rows) != len(bid_rows):
        raise ValueError("clicks and bids must describe the same requests")
    top = click_rows[:, :k]
    return float((top * bid_rows[:, : top.shape[1]]).sum(axis=1).mean())
