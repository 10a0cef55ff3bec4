"""Shared training machinery for the neural baseline re-rankers.

DLCM / PRM / SetRank / SRGA / DESA all follow the same recipe: a network
maps a :class:`RerankBatch` to per-item scores, trained on click labels with
a model-specific loss.  :class:`NeuralReranker` centralizes batching, the
Adam loop, gradient clipping, and inference so each baseline only defines
its architecture and loss.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .. import nn
from ..data.batching import RerankBatch, iterate_batches, normalized_initial_scores
from ..data.schema import Catalog, Population, RankingRequest
from ..nn import Tensor
from ..obs import Histogram
from .base import Reranker

__all__ = ["NeuralReranker", "list_input_features", "normalized_initial_scores"]

LossFn = Callable[[Tensor, np.ndarray, np.ndarray], Tensor]

_LOSSES: dict[str, LossFn] = {
    "pointwise": lambda s, y, m: nn.losses.pointwise_bce_with_logits(s, y, mask=m),
    "listwise": lambda s, y, m: nn.losses.listwise_softmax_ce(s, y, mask=m),
    "pairwise": lambda s, y, m: nn.losses.pairwise_bpr(s, y, mask=m),
    "hinge": lambda s, y, m: nn.losses.pairwise_hinge(s, y, mask=m),
}


def list_input_features(batch: RerankBatch) -> np.ndarray:
    """Default per-item inputs: ``[x_u, x_v, tau_v, initial_score]`` (B, L, d)."""
    user = np.repeat(batch.user_features[:, None, :], batch.list_length, axis=1)
    return np.concatenate(
        [
            user,
            batch.item_features,
            batch.coverage,
            normalized_initial_scores(batch)[:, :, None],
        ],
        axis=2,
    )


class NeuralReranker(Reranker):
    """Base class for trainable re-rankers.

    Subclasses implement :meth:`build_network` (returning a module that maps
    a batch to (B, L) score logits) and set ``loss``/``name``.

    Parameters
    ----------
    hidden:
        Hidden width passed to the network builder.
    epochs, batch_size, lr, grad_clip:
        Optimization settings.
    loss:
        One of ``pointwise``, ``listwise``, ``pairwise``, ``hinge``.
    """

    requires_training = True
    loss = "pointwise"

    def __init__(
        self,
        hidden: int = 16,
        epochs: int = 5,
        batch_size: int = 64,
        lr: float = 1e-2,
        grad_clip: float = 5.0,
        weight_decay: float = 1e-4,
        seed: int = 0,
        topic_history_length: int = 5,
        flat_history_length: int = 20,
    ) -> None:
        self.hidden = hidden
        self.epochs = epochs
        self.batch_size = batch_size
        self.lr = lr
        self.grad_clip = grad_clip
        self.weight_decay = weight_decay
        self.seed = seed
        self.topic_history_length = topic_history_length
        self.flat_history_length = flat_history_length
        self.network: nn.Module | None = None
        self.training_losses: list[float] = []

    # ------------------------------------------------------------------
    def build_network(
        self, catalog: Catalog, population: Population
    ) -> nn.Module:
        """Construct the scoring network for the given feature dimensions."""
        raise NotImplementedError

    def _score_tensor(self, batch: RerankBatch) -> Tensor:
        assert self.network is not None
        return self.network(batch)

    # ------------------------------------------------------------------
    def fit(
        self,
        requests: Sequence[RankingRequest],
        catalog: Catalog,
        population: Population,
        histories: list[np.ndarray],
        timings: Histogram | None = None,
    ) -> "NeuralReranker":
        if self.loss not in _LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        if self.network is None:
            self.network = self.build_network(catalog, population)
        loss_fn = _LOSSES[self.loss]
        optimizer = nn.Adam(
            self.network.parameters(), lr=self.lr, weight_decay=self.weight_decay
        )
        self.network.train()
        self.training_losses = []
        for epoch in range(self.epochs):
            epoch_losses = []
            for batch in iterate_batches(
                requests,
                catalog,
                population,
                histories,
                batch_size=self.batch_size,
                shuffle=True,
                seed=self.seed + epoch,
                topic_history_length=self.topic_history_length,
                flat_history_length=self.flat_history_length,
            ):
                import time as _time

                start = _time.perf_counter()
                optimizer.zero_grad()
                scores = self._score_tensor(batch)
                loss = loss_fn(scores, batch.clicks, batch.training_mask)
                loss.backward()
                nn.clip_grad_norm(self.network.parameters(), self.grad_clip)
                optimizer.step()
                if timings is not None:
                    timings.observe(1000.0 * (_time.perf_counter() - start))
                epoch_losses.append(loss.item())
            self.training_losses.append(float(np.mean(epoch_losses)))
        return self

    def score_batch(self, batch: RerankBatch) -> np.ndarray:
        if self.network is None:
            raise RuntimeError(f"fit {self.name} before scoring")
        was_training = self.network.training
        self.network.eval()
        try:
            if nn.inference.infer_enabled():
                # Tape-free dispatch.  Baselines without a hand-written
                # ndarray path fall back to Module.infer (forward under
                # no_grad, float64) — bitwise identical scores, no tape.
                scores = self.network.infer(batch)
                return np.asarray(scores, dtype=np.float64)
            with nn.no_grad():
                scores = self._score_tensor(batch)
        finally:
            self.network.train(was_training)
        return scores.numpy()
