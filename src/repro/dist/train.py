"""Data-parallel RAPID training with bit-identical kill-and-rejoin.

Replication discipline (DESIGN.md §12). ``W`` workers hold identical
model replicas; each training step is lockstep:

1. every live worker runs :func:`~repro.core.trainer.backward_batch` on
   its own shard's next batch and ships ``(grads, loss, count)`` to the
   parent (``count`` = observed training positions, the BCE weight sum);
2. the parent computes the count-weighted average in **rank order** —
   ``sum_r(grad_r * count_r) / sum_r(count_r)`` — which is exactly the
   gradient the concatenated batch would produce, because the pointwise
   BCE divides by the weight sum;
3. the averaged gradient goes back to every worker, and every replica —
   plus the **parent replica** — applies the identical
   :func:`~repro.core.trainer.apply_step` (clip + Adam).  Same floats,
   same op order ⇒ replicas can never drift, bit for bit.

The parent replica is the linchpin of fault tolerance: it is always in
the post-step-``s-1`` state while step ``s`` is in flight, so a killed
worker's replacement simply **adopts** the parent's model + Adam state
and recomputes its step-``s`` gradient — bit-identical to what the dead
worker would have sent, because all per-step randomness is *stateless*:
the noise generator for ``(rank, epoch, step)`` is derived fresh from
``SeedSequence([seed+1, 101+rank, epoch, step])`` and batch order is a
pure function of ``(seed, epoch, rank)``.  No mutable RNG state ever
needs to survive a SIGKILL.

Kill delivery at the ``dist.worker.step`` fault point:

- **worker-side** (``DistTrainConfig.worker_chaos``, armed only in a
  worker's first incarnation): the worker SIGKILLs itself at the top of a
  step, before contributing — the replacement recomputes that step, so
  the run's arithmetic is untouched;
- **parent-side** (a plan armed in the parent process,
  :func:`~repro.resilience.chaos.faultpoint_signal` per gradient
  message): the parent SIGKILLs the sender *after* banking its
  contribution — again arithmetic-neutral, and ``plan.fires()`` stays in
  the parent where tests can audit it against ``dist.worker_restarts``.

Either way the loss curve is bit-identical to the uninterrupted run.
Only **degradation** (a slot's restart budget exhausted → averaging over
the survivors) changes the math, and that is announced with a
``dist.degraded`` run-log event.

The workers run on :class:`~repro.dist.supervisor.WorkerFleet`, the same
process plumbing as the eval-sweep task farm; this module adds only the
worker body (adopt, then grad/update rounds) and the parent's lockstep
loop over the fleet's events.  The single-process parity reference —
per-rank backwards in rank order, one averaged apply, bitwise equal to
this fleet — is :func:`repro.testing.reference.train_dist_reference`.

Checkpoints: the parent writes per-rank directories
(``rank000/ ...``) every epoch through the PR 5 format, with per-worker
identity (rank, world size, seed) in the ``extra`` arrays; resume loads
the newest epoch *common to every rank* and restarts the fleet from
there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from math import ceil
from pathlib import Path
from typing import Sequence

import numpy as np

from .. import nn
from ..core.trainer import TrainConfig, apply_step, backward_batch
from ..data.batching import iterate_batches
from ..data.schema import Catalog, Population, RankingRequest
from ..obs import get_registry, get_run_logger, trace
from ..obs.context import merge_span_records, span_tree_records
from ..resilience.chaos import (
    ChaosPlan,
    FaultSpec,
    faultpoint,
    faultpoint_signal,
    install_chaos,
)
from ..resilience.checkpoint import (
    CheckpointConfig,
    CheckpointManager,
    TrainingCheckpoint,
)
from .supervisor import DistError, RestartPolicy, WorkerFleet

__all__ = [
    "DistTrainConfig",
    "DistTrainResult",
    "train_dist",
    "shard_requests",
    "average_contributions",
]


@dataclass(frozen=True)
class DistTrainConfig:
    """Fleet shape and fault-tolerance knobs for :func:`train_dist`."""

    world_size: int = 2
    restart: RestartPolicy = field(default_factory=RestartPolicy)
    checkpoint: CheckpointConfig | None = None
    #: ``(rank, FaultSpec)`` pairs armed inside that worker's *first*
    #: incarnation only (replacements never re-arm, or a ``times=1`` kill
    #: would fire once per incarnation and eat the restart budget).
    worker_chaos: tuple = ()

    def __post_init__(self) -> None:
        if self.world_size < 1:
            raise ValueError("world_size must be >= 1")
        for entry in self.worker_chaos:
            rank, spec = entry
            if not (0 <= rank < self.world_size and isinstance(spec, FaultSpec)):
                raise ValueError(
                    "worker_chaos entries must be (rank, FaultSpec) pairs "
                    "with rank inside the fleet"
                )


@dataclass
class DistTrainResult:
    """What one data-parallel run produced."""

    losses: list[float]
    restarts: int = 0
    degraded: list[int] = field(default_factory=list)
    span_records: list[dict] = field(default_factory=list)


# ----------------------------------------------------------------------
# Deterministic sharding and randomness
# ----------------------------------------------------------------------
def shard_requests(
    requests: Sequence[RankingRequest], world_size: int
) -> list[list[RankingRequest]]:
    """Round-robin request shards: request ``i`` belongs to rank ``i % W``."""
    if len(requests) < world_size:
        raise DistError(
            f"{len(requests)} request(s) cannot feed {world_size} worker(s)"
        )
    return [list(requests[rank::world_size]) for rank in range(world_size)]


def _epoch_seed(seed: int, epoch: int, rank: int) -> int:
    return int(
        np.random.SeedSequence([seed, 17, epoch, rank]).generate_state(1)[0]
    )


def _step_rng(seed: int, epoch: int, step: int, rank: int) -> np.random.Generator:
    """The stateless per-step noise generator (see module docs)."""
    return np.random.default_rng(
        np.random.SeedSequence([seed + 1, 101 + rank, epoch, step])
    )


def _steps_per_epoch(shards, batch_size: int) -> int:
    """Lockstep step count: the *shortest* shard's batch count.

    Fixed for the whole job, so degradation mid-run never changes how many
    steps an epoch has (survivors always own at least this many batches).
    Trailing batches of longer shards are dropped, mirroring
    drop-last-style data parallelism.
    """
    return min(ceil(len(shard) / batch_size) for shard in shards)


def _rank_batches(shard, catalog, population, histories, config, epoch, rank):
    return list(
        iterate_batches(
            shard,
            catalog,
            population,
            histories,
            batch_size=config.batch_size,
            shuffle=True,
            seed=_epoch_seed(config.seed, epoch, rank),
            topic_history_length=config.topic_history_length,
            flat_history_length=config.flat_history_length,
        )
    )


def _collect_grads(model) -> list[np.ndarray]:
    return [
        param.grad.copy()
        if param.grad is not None
        else np.zeros_like(param.data, dtype=np.float64)
        for param in model.parameters()
    ]


def average_contributions(contribs):
    """Count-weighted gradient/loss average, summed in rank order.

    ``contribs`` is a rank-sorted list of ``(rank, grads, loss, count)``.
    The fleet's parent and the single-process reference call this exact
    function, so the floating-point reduction order — the thing bitwise
    parity hinges on — is shared by construction.
    """
    total = float(sum(c[3] for c in contribs))
    first = contribs[0]
    averaged = []
    for i in range(len(first[1])):
        acc = first[1][i] * float(first[3])
        for c in contribs[1:]:
            acc = acc + c[1][i] * float(c[3])
        averaged.append(acc / total)
    loss = sum(c[2] * float(c[3]) for c in contribs) / total
    return averaged, loss


# ----------------------------------------------------------------------
# Checkpointing (per-rank directories, parent-written)
# ----------------------------------------------------------------------
def _rank_managers(dist: DistTrainConfig) -> "list[CheckpointManager] | None":
    if dist.checkpoint is None:
        return None
    base = Path(dist.checkpoint.directory)
    return [
        CheckpointManager(
            CheckpointConfig(
                directory=base / f"rank{rank:03d}",
                every_epochs=dist.checkpoint.every_epochs,
                keep_last=dist.checkpoint.keep_last,
                fsync=dist.checkpoint.fsync,
            )
        )
        for rank in range(dist.world_size)
    ]


def _save_rank_checkpoints(
    managers, model, optimizer, epoch, losses, config, dist
) -> None:
    for rank, manager in enumerate(managers):
        if manager.should_save(epoch):
            manager.save(
                model=model,
                optimizer=optimizer,
                epoch=epoch,
                losses=losses,
                extra={
                    "rank": np.array(rank, dtype=np.int64),
                    "world_size": np.array(dist.world_size, dtype=np.int64),
                    "seed": np.array(config.seed, dtype=np.int64),
                },
            )


def _resume_common(managers) -> "TrainingCheckpoint | None":
    """The newest checkpoint epoch intact on *every* rank (or None).

    Replica states are identical across ranks, so any rank's archive at
    the common epoch restores the whole fleet; the per-rank copies exist
    to survive the loss of any one directory.
    """
    found = []
    for manager in managers:
        latest = manager.latest()
        if latest is None:
            return None
        found.append(latest)
    epoch = min(ckpt.epoch for _, ckpt in found)
    for _, ckpt in found:
        if ckpt.epoch == epoch:
            return ckpt
    return None  # pragma: no cover - min() guarantees a match above


# ----------------------------------------------------------------------
# The worker body and the parent's lockstep loop
# ----------------------------------------------------------------------
def _train_worker(
    shards,
    catalog,
    population,
    histories,
    config,
    steps,
    model,
    worker_chaos,
    conn,
    rank,
    incarnation,
) -> None:
    """One training worker: adopt state, then lockstep grad/update rounds."""
    if incarnation == 0 and worker_chaos.get(rank):
        install_chaos(ChaosPlan(worker_chaos[rank], seed=config.seed + rank))
    optimizer = nn.Adam(
        model.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    model.train()
    _, model_state, optimizer_state, epoch, step = conn.recv()  # "adopt"
    model.load_state_dict(model_state)
    optimizer.load_state_dict(optimizer_state)
    while epoch < config.epochs:
        batches = _rank_batches(
            shards[rank], catalog, population, histories, config, epoch, rank
        )
        for current in range(step, steps):
            faultpoint("dist.worker.step")
            with trace("dist.step"):
                loss, count = backward_batch(
                    model,
                    optimizer,
                    batches[current],
                    _step_rng(config.seed, epoch, current, rank),
                )
            conn.send(
                (
                    "grad",
                    rank,
                    epoch,
                    current,
                    _collect_grads(model),
                    float(loss.item()),
                    count,
                )
            )
            reply = conn.recv()  # ("update", averaged_grads)
            apply_step(model, optimizer, config.grad_clip, grads=reply[1])
        step = 0
        epoch += 1


def _adopt(fleet, rank, model, optimizer, epoch, step) -> None:
    """Hand a fresh worker the parent replica's state at ``(epoch, step)``."""
    fleet.send(
        rank, ("adopt", model.state_dict(), optimizer.state_dict(), epoch, step)
    )


def _replace(fleet, rank, model, optimizer, epoch, step) -> str:
    """Restart a dead worker adopting ``(epoch, step)``, or degrade its slot."""
    action = fleet.on_death(rank)
    if action == "restart":
        _adopt(fleet, rank, model, optimizer, epoch, step)
    return action


def _train_fleet(
    model, shards, catalog, population, histories, config, dist, logger
) -> DistTrainResult:
    optimizer = nn.Adam(
        model.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    losses: list[float] = []
    start_epoch = 0
    managers = _rank_managers(dist)
    if managers is not None:
        restored = _resume_common(managers)
        if restored is not None:
            model.load_state_dict(restored.model_state)
            optimizer.load_state_dict(restored.optimizer_state)
            losses = list(restored.losses)
            start_epoch = restored.epoch + 1
            logger.log("dist.resume", epoch=restored.epoch)
    model.train()
    steps = _steps_per_epoch(shards, config.batch_size)
    step_counter = get_registry().counter("dist.steps")
    worker_chaos: dict[int, list[FaultSpec]] = {}
    for rank, spec in dist.worker_chaos:
        worker_chaos.setdefault(rank, []).append(spec)
    body = partial(
        _train_worker,
        shards,
        catalog,
        population,
        histories,
        config,
        steps,
        model,
        worker_chaos,
    )
    with WorkerFleet(dist.world_size, body, dist.restart) as fleet:
        for rank in sorted(fleet.core.live):
            _adopt(fleet, rank, model, optimizer, start_epoch, 0)
        for epoch in range(start_epoch, config.epochs):
            step_losses = []
            for step in range(steps):
                contribs, killed_after = _collect_step(
                    fleet, model, optimizer, epoch, step
                )
                averaged, step_loss = average_contributions(
                    [contribs[rank] for rank in sorted(contribs)]
                )
                apply_step(model, optimizer, config.grad_clip, grads=averaged)
                step_counter.inc()
                step_losses.append(step_loss)
                for rank in sorted(fleet.core.live - killed_after):
                    fleet.send(rank, ("update", averaged))
                # Parent-side kills banked their contribution; the
                # replacement resumes at the *next* position, post-update.
                next_epoch, next_step = (
                    (epoch, step + 1) if step + 1 < steps else (epoch + 1, 0)
                )
                for rank in sorted(killed_after):
                    _replace(fleet, rank, model, optimizer, next_epoch, next_step)
            mean_loss = float(np.mean(step_losses))
            losses.append(mean_loss)
            logger.log(
                "dist.epoch",
                epoch=epoch,
                loss=mean_loss,
                live_workers=len(fleet.core.live),
            )
            if managers is not None:
                _save_rank_checkpoints(
                    managers, model, optimizer, epoch, losses, config, dist
                )
    # span buffers arrive with the workers' "done" messages as the fleet
    # closes, so they are only complete after the ``with`` block
    return DistTrainResult(
        losses=losses,
        restarts=fleet.core.total_restarts,
        degraded=sorted(fleet.core.removed),
        span_records=list(fleet.span_buffer),
    )


def _collect_step(fleet, model, optimizer, epoch, step):
    """Gather one full round of gradient contributions (see module docs).

    Blocks until every live worker has contributed for ``(epoch, step)``,
    restarting or degrading dead workers along the way.  Returns the
    contributions plus the set of ranks killed *after* contributing
    (parent-side chaos), whose replacements must adopt the post-step
    state.
    """
    contribs: dict[int, tuple] = {}
    killed_after: set[int] = set()
    pending = set(fleet.core.live)
    while pending:
        for rank, message in fleet.events(pending):
            if message is None:
                if _replace(fleet, rank, model, optimizer, epoch, step) == "degrade":
                    pending.discard(rank)
                continue
            spec = faultpoint_signal("dist.worker.step")
            if spec is not None and spec.kind == "kill":
                fleet.kill(rank)
                killed_after.add(rank)
            _, _, msg_epoch, msg_step, grads, loss, count = message
            if (msg_epoch, msg_step) != (epoch, step):
                raise DistError(
                    f"worker {rank} is out of lockstep: sent "
                    f"({msg_epoch}, {msg_step}), expected ({epoch}, {step})"
                )
            contribs[rank] = (rank, grads, loss, count)
            pending.discard(rank)
    if not contribs:
        raise DistError(
            f"every training worker is gone at epoch {epoch} step {step}"
        )
    return contribs, killed_after


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def train_dist(
    model,
    requests: Sequence[RankingRequest],
    catalog: Catalog,
    population: Population,
    histories: list[np.ndarray],
    config: TrainConfig = TrainConfig(),
    dist: DistTrainConfig = DistTrainConfig(),
    run_logger=None,
) -> DistTrainResult:
    """Train ``model`` data-parallel across ``dist.world_size`` workers.

    ``model`` is updated in place (the parent replica *is* the caller's
    model).  Returns the per-epoch loss curve plus restart/degradation
    accounting and the fleet's merged span records.  See the module
    docstring for the replication and fault-tolerance contract.
    """
    logger = run_logger if run_logger is not None else get_run_logger()
    shards = shard_requests(requests, dist.world_size)
    logger.log(
        "dist.start",
        world_size=dist.world_size,
        num_requests=len(requests),
        epochs=config.epochs,
    )
    get_registry().gauge("dist.live_workers").set(float(dist.world_size))
    with trace("dist.train") as train_span:
        result = _train_fleet(
            model, shards, catalog, population, histories, config, dist, logger
        )
    # collected only now: the tracer files a tree when its *root* closes,
    # so inside the block the parent's own spans were still invisible
    result.span_records = merge_span_records(
        span_tree_records(train_span), result.span_records
    )
    logger.log(
        "dist.done",
        epochs_run=len(result.losses),
        restarts=result.restarts,
        degraded=result.degraded,
    )
    return result
