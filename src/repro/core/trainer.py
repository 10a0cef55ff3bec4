"""Training loop and re-ranker wrapper for RAPID (paper Sec. III-E).

RAPID is optimized end-to-end with the pointwise cross-entropy of Eq. 11 on
the click labels of the initial lists, using Adam.  The list-wise neural
baselines (DLCM, PRM, SetRank, SRGA, DESA, Seq2Slate) are trained the same
way with their own loss, so :func:`train_rapid` is the one loop for every
list-wise model: the ``loss_fn`` argument is the only difference.
:class:`RapidReranker` adapts a trained :class:`RapidModel` to the shared
:class:`~repro.rerank.base.Reranker` interface used by the evaluation
harness and the baselines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .. import nn
from ..data.batching import RerankBatch, iterate_batches
from ..data.schema import Catalog, Population, RankingRequest
from ..obs import RunLogger, get_registry, get_run_logger, trace
from ..rerank.base import Reranker
from ..resilience.chaos import faultpoint
from ..resilience.checkpoint import CheckpointConfig, CheckpointManager
from ..utils.rng import make_rng
from .rapid import RapidConfig, RapidModel, make_rapid_variant

__all__ = [
    "TrainConfig",
    "rapid_loss",
    "backward_batch",
    "apply_step",
    "train_rapid",
    "RapidReranker",
]


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyper-parameters (paper Sec. IV-C grid)."""

    epochs: int = 5
    batch_size: int = 64
    lr: float = 1e-2
    grad_clip: float = 5.0
    weight_decay: float = 1e-4
    topic_history_length: int = 5  # D, best value per Table V
    flat_history_length: int = 20
    seed: int = 0


LossFn = Callable[[nn.Module, RerankBatch, np.random.Generator], nn.Tensor]


def rapid_loss(
    model: RapidModel, batch: RerankBatch, rng: np.random.Generator
) -> nn.Tensor:
    """Eq. 11: masked pointwise BCE of RAPID's click probabilities."""
    probs = model(batch, rng=rng)
    return nn.losses.pointwise_bce(probs, batch.clicks, mask=batch.training_mask)


def backward_batch(
    model: nn.Module,
    optimizer: nn.Adam,
    batch: RerankBatch,
    rng: np.random.Generator,
    loss_fn: LossFn = rapid_loss,
):
    """Zero grads, ``loss_fn(model, batch, rng)``, backward — no update.

    Returns ``(loss, count)`` where ``count`` is the number of observed
    training positions (the BCE weight sum).  This is the half of a train
    step that depends only on local data; the data-parallel trainer
    (:mod:`repro.dist.train`) runs it per worker and averages the
    resulting gradients weighted by ``count``, which reproduces the
    single-process loss exactly: single-process BCE divides by the batch's
    weight sum, so ``sum_w(grad_w * count_w) / sum_w(count_w)`` equals the
    gradient of the concatenated batch.
    """
    optimizer.zero_grad()
    loss = loss_fn(model, batch, rng)
    loss.backward()
    return loss, int(batch.training_mask.sum())


def apply_step(
    model: nn.Module,
    optimizer: nn.Adam,
    grad_clip: float,
    grads: "list[np.ndarray] | None" = None,
) -> float:
    """Clip + Adam update; optionally install externally averaged ``grads``.

    With ``grads`` given (one array per ``model.parameters()`` entry, in
    order), each parameter's ``.grad`` is overwritten first — the
    data-parallel path, where every replica applies the same averaged
    gradient and therefore stays bit-identical.  Returns the pre-clip
    global gradient norm.
    """
    params = list(model.parameters())
    if grads is not None:
        if len(grads) != len(params):
            raise ValueError(
                f"got {len(grads)} gradient arrays for {len(params)} parameters"
            )
        for param, grad in zip(params, grads):
            # Autograd accumulates gradients in float64 (tensor.backward);
            # installed averages must match or replicas drift bitwise.
            param.grad = np.asarray(grad, dtype=np.float64)
    grad_norm = nn.clip_grad_norm(params, grad_clip)
    optimizer.step()
    return float(grad_norm)


def train_rapid(
    model: nn.Module,
    requests: Sequence[RankingRequest],
    catalog: Catalog,
    population: Population,
    histories: list[np.ndarray],
    config: TrainConfig = TrainConfig(),
    on_epoch_end: Callable[[int, float], object] | None = None,
    run_logger: RunLogger | None = None,
    checkpoint: CheckpointConfig | None = None,
    loss_fn: LossFn = rapid_loss,
) -> list[float]:
    """Train ``model`` in place; returns the per-epoch mean losses.

    Each batch minimizes ``loss_fn(model, batch, noise_rng)``: RAPID's
    Eq. 11 BCE by default, a baseline's own loss for the list-wise
    baselines (:meth:`repro.rerank.NeuralReranker.fit`).

    ``on_epoch_end(epoch, mean_loss)`` is invoked after every epoch;
    returning a truthy value stops training early (the losses recorded so
    far are returned).  Telemetry goes to ``run_logger`` (the global run
    logger when omitted — silent by default) and to the process-global
    metrics registry/tracer: per-batch ``train.batch`` events and spans,
    per-epoch ``train.epoch`` events with loss, grad norm, learning rate
    and throughput, a ``train.batch_ms`` latency histogram and a
    ``train.lists`` counter.

    With ``checkpoint`` set, the run saves a durable checkpoint (model +
    optimizer slots + noise-RNG state + loss history; see
    :mod:`repro.resilience.checkpoint`) every
    ``checkpoint.every_epochs`` epochs, and **resumes** from the newest
    intact checkpoint in ``checkpoint.directory`` when one exists.
    Because batch shuffling is seeded by ``config.seed + epoch`` (pure
    function of the epoch) and the only stateful randomness is
    ``noise_rng`` (captured in the checkpoint), a killed-and-resumed run
    reproduces the uninterrupted loss curve bit-identically.
    """
    if not requests:
        raise ValueError("no training requests provided")
    logger = run_logger if run_logger is not None else get_run_logger()
    batch_hist = get_registry().histogram("train.batch_ms")
    lists_counter = get_registry().counter("train.lists")
    optimizer = nn.Adam(
        model.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    noise_rng = make_rng(config.seed + 1)
    losses: list[float] = []
    start_epoch = 0
    manager = CheckpointManager(checkpoint) if checkpoint is not None else None
    if manager is not None:
        restored = manager.restore(model=model, optimizer=optimizer, rng=noise_rng)
        if restored is not None:
            start_epoch = restored.epoch + 1
            losses = list(restored.losses)
            logger.log(
                "train.resume",
                epoch=restored.epoch,
                epochs_done=len(losses),
                directory=str(checkpoint.directory),
            )
    model.train()
    with trace("train.run"):
        logger.log(
            "train.start",
            model=type(model).__name__,
            epochs=config.epochs,
            batch_size=config.batch_size,
            lr=config.lr,
            num_requests=len(requests),
        )
        for epoch in range(start_epoch, config.epochs):
            faultpoint("train.epoch")
            epoch_losses: list[float] = []
            grad_norms: list[float] = []
            lists_seen = 0
            epoch_start = time.perf_counter()
            with trace("train.epoch"):
                for batch_index, batch in enumerate(
                    iterate_batches(
                        requests,
                        catalog,
                        population,
                        histories,
                        batch_size=config.batch_size,
                        shuffle=True,
                        seed=config.seed + epoch,
                        topic_history_length=config.topic_history_length,
                        flat_history_length=config.flat_history_length,
                    )
                ):
                    faultpoint("train.batch")
                    with trace("train.batch"):
                        start = time.perf_counter()
                        loss, _ = backward_batch(
                            model, optimizer, batch, noise_rng, loss_fn
                        )
                        grad_norm = apply_step(model, optimizer, config.grad_clip)
                        batch_seconds = time.perf_counter() - start
                    batch_hist.observe(1000.0 * batch_seconds)
                    lists_counter.inc(batch.batch_size)
                    epoch_losses.append(loss.item())
                    grad_norms.append(float(grad_norm))
                    lists_seen += batch.batch_size
                    logger.log(
                        "train.batch",
                        epoch=epoch,
                        batch=batch_index,
                        loss=epoch_losses[-1],
                        grad_norm=grad_norms[-1],
                        batch_ms=1000.0 * batch_seconds,
                    )
            epoch_seconds = time.perf_counter() - epoch_start
            mean_loss = float(np.mean(epoch_losses))
            losses.append(mean_loss)
            get_registry().gauge("train.loss").set(mean_loss)
            logger.log(
                "train.epoch",
                epoch=epoch,
                loss=mean_loss,
                grad_norm=float(np.mean(grad_norms)) if grad_norms else 0.0,
                lr=config.lr,
                lists_per_sec=lists_seen / epoch_seconds if epoch_seconds else 0.0,
                epoch_s=epoch_seconds,
            )
            if manager is not None and manager.should_save(epoch):
                manager.save(
                    model=model,
                    optimizer=optimizer,
                    epoch=epoch,
                    losses=losses,
                    rng=noise_rng,
                )
            if on_epoch_end is not None and on_epoch_end(epoch, mean_loss):
                logger.log("train.early_stop", epoch=epoch, loss=mean_loss)
                break
        if losses:
            logger.log("train.end", epochs_run=len(losses), final_loss=losses[-1])
    return losses


class RapidReranker(Reranker):
    """RAPID exposed through the shared re-ranker interface.

    Parameters
    ----------
    rapid_config:
        Architecture; build a named variant with ``variant``.
    variant:
        One of ``rapid-pro`` (default), ``rapid-det``, ``rapid-rnn``,
        ``rapid-mean``, ``rapid-trans``.
    train_config:
        Optimization settings used by :meth:`fit`.
    inference:
        ``"sort"`` (paper default: one forward pass, sort by score) or
        ``"greedy"`` — greedy sequential construction that recomputes each
        candidate's personalized diversity gain against the already-chosen
        prefix, mirroring the theory section's list constructor.
    """

    requires_training = True

    def __init__(
        self,
        rapid_config: RapidConfig,
        variant: str = "rapid-pro",
        train_config: TrainConfig = TrainConfig(),
        inference: str = "sort",
    ) -> None:
        if inference not in ("sort", "greedy"):
            raise ValueError("inference must be 'sort' or 'greedy'")
        self.name = variant if inference == "sort" else f"{variant}-greedy"
        self.variant = variant
        self.train_config = train_config
        self.inference = inference
        self.model = make_rapid_variant(variant, rapid_config)
        self.training_losses: list[float] = []

    def fit(
        self,
        requests: Sequence[RankingRequest],
        catalog: Catalog,
        population: Population,
        histories: list[np.ndarray],
    ) -> "RapidReranker":
        self.training_losses = train_rapid(
            self.model,
            requests,
            catalog,
            population,
            histories,
            config=self.train_config,
        )
        return self

    def score_batch(self, batch: RerankBatch) -> np.ndarray:
        return self.model.inference_scores(batch)

    def rerank(self, batch: RerankBatch) -> np.ndarray:
        if self.inference == "greedy":
            return self.model.greedy_rerank(batch)
        return super().rerank(batch)
