"""Shared training machinery for the neural baseline re-rankers.

DLCM / PRM / SetRank / SRGA / DESA all follow the same recipe: a network
maps a :class:`RerankBatch` to per-item scores, trained on click labels with
a model-specific loss.  :class:`NeuralReranker` trains the network with
RAPID's loop, :func:`repro.core.trainer.train_rapid`, passing the baseline's
loss, so each baseline only defines its architecture and loss.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .. import nn

# A module import, not ``from ..core.trainer import ...``: importing
# ``repro.core`` first loads the trainer, whose ``Reranker`` import loads
# this package before the trainer's names exist.
from ..core import trainer
from ..data.batching import RerankBatch, normalized_initial_scores
from ..data.schema import Catalog, Population, RankingRequest
from ..nn import Tensor
from .base import Reranker

__all__ = ["NeuralReranker", "list_input_features", "normalized_initial_scores"]

LossFn = Callable[[Tensor, np.ndarray, np.ndarray], Tensor]

_LOSSES: dict[str, LossFn] = {
    "pointwise": lambda s, y, m: nn.losses.pointwise_bce_with_logits(s, y, mask=m),
    "listwise": lambda s, y, m: nn.losses.listwise_softmax_ce(s, y, mask=m),
    "pairwise": lambda s, y, m: nn.losses.pairwise_bpr(s, y, mask=m),
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
    epochs, batch_size, lr, grad_clip, weight_decay, seed,
    topic_history_length, flat_history_length:
        Optimization and batching settings, kept as one
        :class:`~repro.core.trainer.TrainConfig` in ``train_config``.
    loss:
        One of ``pointwise``, ``listwise``, ``pairwise``.
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
        self.train_config = trainer.TrainConfig(
            epochs=epochs,
            batch_size=batch_size,
            lr=lr,
            grad_clip=grad_clip,
            weight_decay=weight_decay,
            topic_history_length=topic_history_length,
            flat_history_length=flat_history_length,
            seed=seed,
        )
        self.network: nn.Module | None = None
        self.training_losses: list[float] = []

    # ------------------------------------------------------------------
    def build_network(
        self, catalog: Catalog, population: Population
    ) -> nn.Module:
        """Construct the scoring network for the given feature dimensions."""
        raise NotImplementedError

    def _loss(
        self, network: nn.Module, batch: RerankBatch, rng: np.random.Generator
    ) -> Tensor:
        """The baseline's ``loss`` on the network's (B, L) score logits."""
        if self.loss not in _LOSSES:
            raise ValueError(f"unknown loss {self.loss!r}")
        return _LOSSES[self.loss](network(batch), batch.clicks, batch.training_mask)

    # ------------------------------------------------------------------
    def fit(
        self,
        requests: Sequence[RankingRequest],
        catalog: Catalog,
        population: Population,
        histories: list[np.ndarray],
    ) -> "NeuralReranker":
        if self.network is None:
            self.network = self.build_network(catalog, population)
        self.training_losses = trainer.train_rapid(
            self.network,
            requests,
            catalog,
            population,
            histories,
            config=self.train_config,
            loss_fn=self._loss,
        )
        return self

    def score_batch(self, batch: RerankBatch) -> np.ndarray:
        if self.network is None:
            raise RuntimeError(f"fit {self.name} before scoring")
        return np.asarray(self.network.infer(batch), dtype=np.float64)
