"""Batch assembly for re-ranking models.

A :class:`RerankBatch` carries every dense array the models need: user and
item features, topic coverage of the initial list, initial-ranker scores,
clicks, validity masks, and the user behavior history in two views — the
flat sequence (used by DIN-style models) and the per-topic split sequences
(used by RAPID's personalized diversity estimator, paper Sec. III-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from ..utils.rng import make_rng
from .schema import Catalog, Population, RankingRequest

__all__ = [
    "RerankBatch",
    "split_history_by_topic",
    "build_batch",
    "iterate_batches",
    "normalized_initial_scores",
]


@dataclass
class RerankBatch:
    """Dense, padded arrays for a batch of ranking requests.

    Shapes use B = batch, L = list length, m = topics, D = per-topic history
    length, H = flat history length, q_u / q_v = feature dims.
    """

    user_ids: np.ndarray  # (B,)
    user_features: np.ndarray  # (B, q_u)
    item_ids: np.ndarray  # (B, L)
    item_features: np.ndarray  # (B, L, q_v)
    coverage: np.ndarray  # (B, L, m)
    initial_scores: np.ndarray  # (B, L)
    clicks: np.ndarray  # (B, L)
    mask: np.ndarray  # (B, L) bool
    history_features: np.ndarray  # (B, H, q_v)
    history_mask: np.ndarray  # (B, H) bool
    topic_history_features: np.ndarray  # (B, m, D, q_v)
    topic_history_mask: np.ndarray  # (B, m, D) bool
    bids: np.ndarray | None = None  # (B, L)
    observed: np.ndarray | None = None  # (B, L) bool: surely-examined (DCM)

    def __post_init__(self) -> None:
        if self.observed is None:
            self.observed = self.mask.copy()

    @property
    def training_mask(self) -> np.ndarray:
        """Valid positions whose click label is unbiased under the DCM."""
        return self.mask & self.observed

    @property
    def batch_size(self) -> int:
        return len(self.user_ids)

    @property
    def list_length(self) -> int:
        return self.item_ids.shape[1]

    @property
    def num_topics(self) -> int:
        return self.coverage.shape[2]


def normalized_initial_scores(batch: RerankBatch) -> np.ndarray:
    """Per-list z-scored initial-ranker scores (B, L).

    Raw ranker logits live on arbitrary scales (DIN logits vs LambdaMART
    margins); normalizing per list keeps the feature comparable across
    initial rankers and training runs.  Padded positions get 0.
    """
    scores = batch.initial_scores
    if batch.mask.all():
        # Fixed-length lists (the serving common case): nanmean/nanstd
        # delegate to mean/std when no NaNs are present, so skipping the
        # NaN-blend allocations is bitwise-identical and ~3x cheaper.
        mean = scores.mean(axis=1, keepdims=True)
        std = scores.std(axis=1, keepdims=True)
        return (scores - mean) / np.where(std > 1e-8, std, 1.0)
    masked = np.where(batch.mask, scores, np.nan)
    mean = np.nanmean(masked, axis=1, keepdims=True)
    std = np.nanstd(masked, axis=1, keepdims=True)
    normalized = (scores - mean) / np.where(std > 1e-8, std, 1.0)
    return np.where(batch.mask, normalized, 0.0)


#: Coverage at which a history item also joins a non-dominant topic.
MEMBERSHIP_THRESHOLD = 0.25


def _topic_slots(
    history_ids: np.ndarray,
    history_valid: np.ndarray,
    coverage: np.ndarray,
    num_topics: int,
    max_length: int,
    membership_threshold: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per-topic split of a batch of histories (Sec. III-C).

    ``history_ids`` (B, W) holds each row's history **most recent first**
    in the columns ``history_valid`` marks, from column 0; W >= 1.  An
    entry joins topic ``j``'s sequence if its coverage of ``j`` is at least
    ``membership_threshold`` or ``j`` is its dominant topic.  A member's
    count (its row's members of that topic at or after it in time) keeps
    the most recent ``max_length`` of each sequence and gives each kept
    member its time-ordered slot.

    Returns ``(row, column, topic, slot)``: ``history_ids[row, column]``
    fills ``slot`` of that row's topic-``topic`` sequence.
    """
    item_cov = coverage.take(history_ids.reshape(-1), axis=0)  # (B * W, M)
    member = item_cov >= membership_threshold
    member[np.arange(len(item_cov)), item_cov.argmax(axis=1)] = True
    member &= history_valid.reshape(-1, 1)
    member = member.reshape(history_ids.shape + (-1,))[..., :num_topics]
    count = np.add.accumulate(member, axis=1, dtype=np.int64)
    # A row's last count is its number of members: the kept ones take
    # slots 0 .. min(members, max_length) - 1, oldest first; others < 0.
    slots = np.minimum(count[:, -1:], max_length) - count
    keep = member & (slots >= 0)
    row, column, topic = keep.nonzero()
    return row, column, topic, slots[keep]


def split_history_by_topic(
    history: np.ndarray,
    coverage: np.ndarray,
    num_topics: int,
    max_length: int,
    membership_threshold: float = MEMBERSHIP_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """Split a flat behavior history into per-topic sequences (Sec. III-C).

    An item joins topic ``j``'s sequence if its coverage of ``j`` is at
    least ``membership_threshold`` or ``j`` is its dominant topic.  Each
    sequence keeps the **most recent** ``max_length`` items, preserving time
    order.  Returns ``(ids (m, D), mask (m, D))`` with -1 padding ids.
    This is the one-row case of the split :func:`build_batch` runs.
    """
    history = np.asarray(history, dtype=np.int64)
    ids = np.full((num_topics, max_length), -1, dtype=np.int64)
    mask = np.zeros((num_topics, max_length), dtype=bool)
    valid = np.arange(max(len(history), 1)) < len(history)
    newest_first = np.zeros(valid.shape, dtype=np.int64)
    newest_first[valid] = history[::-1]
    _, column, topic, slot = _topic_slots(
        newest_first[None],
        valid[None],
        coverage,
        num_topics,
        max_length,
        membership_threshold,
    )
    ids[topic, slot] = newest_first[column]
    mask[topic, slot] = True
    return ids, mask


def build_batch(
    requests: Sequence[RankingRequest],
    catalog: Catalog,
    population: Population,
    histories: Sequence[np.ndarray],
    topic_history_length: int = 5,
    flat_history_length: int = 20,
) -> RerankBatch:
    """Assemble a :class:`RerankBatch` from raw requests.

    Lists may have different lengths; shorter lists are zero-padded and
    masked.  Histories are truncated to the most recent entries.  Every
    array is filled by whole-batch gathers, with no loop over rows; both
    history views come from one (B, W) array of the users' histories.
    """
    if not requests:
        raise ValueError("cannot build a batch from zero requests")
    batch = len(requests)
    features = catalog.features
    users, lengths, items, scores, click_rows, click_thresholds = zip(
        *[
            (
                r.user_id,
                r.list_length,
                r.items,
                r.initial_scores,
                r.clicks,
                np.inf if r.fully_observed or r.clicks is None else 0.5,
            )
            for r in requests
        ]
    )
    user_ids = np.array(users, dtype=np.int64)
    sizes, newest_first, recent = zip(
        *[
            (len(h), h[::-1], h[-flat_history_length:])
            for h in [np.asarray(histories[u], dtype=np.int64) for u in users]
        ]
    )
    # One comparison marks the valid list positions (rows 0 .. B-1) and
    # the valid history columns (rows B .. 2B-1); W >= flat_history_length.
    length = max(lengths)
    width = max(max(sizes), flat_history_length, 1)
    valid = np.greater.outer(np.array(lengths + sizes), np.arange(max(length, width)))
    mask = valid[:batch, :length].copy()  # contiguous: it drives the scatters
    history_valid = valid[batch:, :width]

    padding = ~mask[..., None]
    item_ids = np.zeros(mask.shape, dtype=np.int64)
    item_ids[mask] = np.concatenate(items)
    initial_scores = np.zeros(mask.shape)
    initial_scores[mask] = np.concatenate(scores)
    clicks = np.zeros(mask.shape)
    if any(row is not None for row in click_rows):
        clicks[mask] = np.concatenate(
            [
                np.zeros(n) if row is None else row
                for n, row in zip(lengths, click_rows)
            ]
        )
    item_features = features.take(item_ids, axis=0)
    np.copyto(item_features, 0.0, where=padding)
    coverage = catalog.coverage.take(item_ids, axis=0)
    np.copyto(coverage, 0.0, where=padding)
    bids = None
    if catalog.bids is not None:
        bids = catalog.bids.take(item_ids)
        np.copyto(bids, 0.0, where=padding[..., 0])

    # DCM observation prefix: with no click, the user examined every
    # position; with clicks, positions after the last click may not have
    # been examined (the session may have terminated there), so their zero
    # labels are censored, not negatives.  Fully-observed requests
    # (simulator-logged attraction outcomes) and requests without clicks
    # carry no censoring: their threshold is infinite, so they count no
    # click, and a batch of only such requests skips the work (RerankBatch
    # then observes every valid position).  ``seen`` marks the positions
    # at or before a row's last counted click.
    observed = None
    if min(click_thresholds) < np.inf:
        counted = clicks > np.array(click_thresholds)[:, None]
        seen = np.logical_or.accumulate(counted[:, ::-1], axis=1)[:, ::-1]
        observed = np.where(seen[:, :1], seen, mask)

    # Histories as (B, W) rows, most recent entry first.
    history_ids = np.zeros(history_valid.shape, dtype=np.int64)
    history_ids[history_valid] = np.concatenate(newest_first)

    # Flat view: the most recent ``flat_history_length`` entries, in order.
    hist_mask = history_valid[:, :flat_history_length]
    hist_features = np.zeros(hist_mask.shape + (features.shape[1],))
    hist_features[hist_mask] = features.take(np.concatenate(recent), axis=0)

    topic_shape = (batch, catalog.num_topics, topic_history_length)
    topic_features = np.zeros(topic_shape + (features.shape[1],))
    topic_mask = np.zeros(topic_shape, dtype=bool)
    row, column, topic, slot = _topic_slots(
        history_ids,
        history_valid,
        catalog.coverage,
        catalog.num_topics,
        topic_history_length,
        MEMBERSHIP_THRESHOLD,
    )
    topic_features[row, topic, slot] = features.take(history_ids[row, column], axis=0)
    topic_mask[row, topic, slot] = True

    return RerankBatch(
        user_ids=user_ids,
        user_features=population.features.take(user_ids, axis=0),
        item_ids=item_ids,
        item_features=item_features,
        coverage=coverage,
        initial_scores=initial_scores,
        clicks=clicks,
        mask=mask,
        observed=observed,
        history_features=hist_features,
        history_mask=hist_mask,
        topic_history_features=topic_features,
        topic_history_mask=topic_mask,
        bids=bids,
    )


def iterate_batches(
    requests: Sequence[RankingRequest],
    catalog: Catalog,
    population: Population,
    histories: Sequence[np.ndarray],
    batch_size: int,
    shuffle: bool = True,
    seed: int | np.random.Generator | None = 0,
    topic_history_length: int = 5,
    flat_history_length: int = 20,
) -> Iterator[RerankBatch]:
    """Yield :class:`RerankBatch` objects covering ``requests`` once."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(requests))
    if shuffle:
        make_rng(seed).shuffle(order)
    for start in range(0, len(order), batch_size):
        chunk = [requests[i] for i in order[start : start + batch_size]]
        yield build_batch(
            chunk,
            catalog,
            population,
            histories,
            topic_history_length=topic_history_length,
            flat_history_length=flat_history_length,
        )
