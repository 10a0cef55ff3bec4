"""DIN — Deep Interest Network initial ranker (Zhou et al., KDD 2018).

DIN scores a candidate item for a user by attending over the user's behavior
history with the *candidate* as the attention query, sum-pooling the history
into an interest vector, and feeding ``[x_u, x_v, tau_v, interest]`` through
an MLP.  It is the paper's default (pointwise-loss) initial ranker.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..data.schema import Catalog, Population
from ..nn import Tensor
from ..utils.rng import make_rng
from .base import InitialRanker

__all__ = ["DINRanker"]

# Candidate lists scored per forward pass.  Each list carries one
# (history_length, item_dim) history block, projected once.  No tensor of
# (candidate, history item) attention inputs is built, but the attention's
# hidden layer is (lists, L, history_length, hidden), so one forward over a
# whole test split would hold tens of megabytes per transient.  Rows are
# independent, but BLAS rounds differently when a call has few rows, so a
# tail under half a chunk joins the chunk before it; that keeps the scores
# bitwise equal to one unchunked forward (tests/test_rankers.py checks it).
_SCORE_CHUNK_LISTS = 48


def _gather_history(
    features: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """History features and mask for ``ids`` padded with ``len(features)``.

    The padding id gathers a zero row appended to ``features``.
    """
    padded = np.concatenate([features, np.zeros((1, features.shape[1]))])
    return padded[ids], ids < len(features)


class _DINNetwork(nn.Module):
    """Attention-pooled interest network."""

    def __init__(
        self,
        user_dim: int,
        item_dim: int,
        num_topics: int,
        hidden: int,
        rng: np.random.Generator,
    ) -> None:
        super().__init__()
        self.item_proj = nn.Linear(item_dim, hidden, rng=rng)
        # Local activation unit: scores each history item against the target.
        # ``forward`` applies its two layers itself, the first block by block.
        self.attention_mlp = nn.MLP(
            [4 * hidden, hidden, 1], activation="relu", rng=rng
        )
        self.output_mlp = nn.MLP(
            [user_dim + item_dim + num_topics + hidden, hidden, 1],
            activation="relu",
            rng=rng,
        )

    def forward(
        self,
        user_features: np.ndarray,
        item_features: np.ndarray,
        item_coverage: np.ndarray,
        history_features: np.ndarray,
        history_mask: np.ndarray,
    ) -> Tensor:
        """Return (batch,) click logits.

        The batch is ``lists * L`` candidates, grouped list by list;
        ``history_features`` (lists, H, item_dim) and ``history_mask``
        (lists, H) hold one history per list.  Each history is projected
        once and broadcast over its list's L candidates; training passes
        one candidate per history.
        """
        target = self.item_proj(Tensor(item_features))  # (B, h)
        history = self.item_proj(Tensor(history_features))  # (lists, H, h)
        lists, horizon, hidden = history.shape
        batch = target.shape[0]
        length = batch // lists
        # The local activation unit's first layer is linear in its input
        # [t, h, t*h, t-h], so its weight applies block by block:
        # W [t, h, t*h, t-h] = (W_t + W_d) t + (W_h - W_d) h + W_p (t*h).
        # The first term runs once per candidate, the second once per
        # history item, and only the product per (candidate, history item).
        first, second = self.attention_mlp.layers
        w_t, w_h, w_p, w_d = (
            first.weight[:, i * hidden : (i + 1) * hidden] for i in range(4)
        )
        per_target = target @ (w_t + w_d).T + first.bias
        per_history = history @ (w_h - w_d).T
        pairs = target.reshape(lists, length, 1, hidden) * history.reshape(
            lists, 1, horizon, hidden
        )
        pre = (
            per_target.reshape(lists, length, 1, hidden)
            + per_history.reshape(lists, 1, horizon, hidden)
            + pairs @ w_p.T
        )  # (lists, L, H, h)
        weights = second(pre.relu()).reshape(lists, length, horizon)
        weights = weights * Tensor(history_mask[:, None, :].astype(np.float64))
        interest = (weights @ history).reshape(batch, hidden)
        combined = Tensor.concatenate(
            [Tensor(user_features), Tensor(item_features), Tensor(item_coverage), interest],
            axis=1,
        )
        return self.output_mlp(combined).reshape(batch)


class DINRanker(InitialRanker):
    """Pointwise deep ranker with history attention.

    Parameters
    ----------
    hidden:
        Width of the projection / MLP layers.
    epochs, batch_size, lr:
        Training configuration (Adam, BCE-with-logits loss).
    history_length:
        Number of most recent history items attended over.
    """

    name = "din"

    def __init__(
        self,
        hidden: int = 16,
        epochs: int = 3,
        batch_size: int = 128,
        lr: float = 1e-2,
        history_length: int = 20,
        seed: int = 0,
    ) -> None:
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.history_length = history_length
        self.seed = seed
        self.network: _DINNetwork | None = None

    # ------------------------------------------------------------------
    def _history_ids(
        self,
        user_ids: np.ndarray,
        catalog: Catalog,
        histories: list[np.ndarray],
    ) -> np.ndarray:
        """(len(user_ids), history_length) ids of each user's recent items.

        Short histories are padded with ``catalog.num_items``, the id of the
        zero row :func:`_gather_history` appends.  The table is filled once
        per distinct user and gathered for the rest.
        """
        horizon = self.history_length
        users, slots = np.unique(user_ids, return_inverse=True)
        table = np.full((len(users), horizon), catalog.num_items, dtype=np.int64)
        for row, user in enumerate(users):
            recent = np.asarray(histories[user], dtype=np.int64)[-horizon:]
            table[row, : len(recent)] = recent
        return table[slots]

    def fit(
        self,
        interactions: np.ndarray,
        catalog: Catalog,
        population: Population,
        histories: list[np.ndarray] | None = None,
    ) -> "DINRanker":
        if histories is None:
            raise ValueError("DIN requires user behavior histories")
        rng = make_rng(self.seed)
        self.network = _DINNetwork(
            population.feature_dim,
            catalog.feature_dim,
            catalog.num_topics,
            self.hidden,
            rng,
        )
        optimizer = nn.Adam(self.network.parameters(), lr=self.lr)
        interactions = np.asarray(interactions, dtype=np.int64)
        history_ids = self._history_ids(interactions[:, 0], catalog, histories)
        for _ in range(self.epochs):
            order = rng.permutation(len(interactions))
            for start in range(0, len(order), self.batch_size):
                batch = order[start : start + self.batch_size]
                rows = interactions[batch]
                users, items, labels = rows[:, 0], rows[:, 1], rows[:, 2]
                hist_f, hist_m = _gather_history(catalog.features, history_ids[batch])
                optimizer.zero_grad()
                logits = self.network(
                    population.features[users],
                    catalog.features[items],
                    catalog.coverage[items],
                    hist_f,
                    hist_m,
                )
                loss = nn.functional.binary_cross_entropy_with_logits(
                    logits, labels.astype(np.float64)
                )
                loss.backward()
                optimizer.step()
        return self

    def score(
        self,
        user_ids: np.ndarray,
        candidate_items: np.ndarray,
        catalog: Catalog,
        population: Population,
        histories: list[np.ndarray] | None = None,
    ) -> np.ndarray:
        if self.network is None:
            raise RuntimeError("fit the ranker before scoring")
        if histories is None:
            raise ValueError("DIN requires user behavior histories")
        user_ids = np.asarray(user_ids, dtype=np.int64)
        candidate_items = np.asarray(candidate_items, dtype=np.int64)
        n, length = candidate_items.shape
        scores = np.empty((n, length))
        history_ids = self._history_ids(user_ids, catalog, histories)
        starts = list(range(0, n, _SCORE_CHUNK_LISTS))
        if len(starts) > 1 and n - starts[-1] < _SCORE_CHUNK_LISTS // 2:
            starts.pop()
        for start, stop in zip(starts, starts[1:] + [n]):
            flat_users = np.repeat(user_ids[start:stop], length)
            flat_items = candidate_items[start:stop].ravel()
            hist_f, hist_m = _gather_history(catalog.features, history_ids[start:stop])
            with nn.no_grad():
                logits = self.network(
                    population.features[flat_users],
                    catalog.features[flat_items],
                    catalog.coverage[flat_items],
                    hist_f,
                    hist_m,
                )
            scores[start:stop] = logits.numpy().reshape(stop - start, length)
        return scores
