"""Fault-tolerant scale-out: supervised workers, shards, trainers, sweeps.

Every component here presumes workers are mortal (ROADMAP item 3):

- :mod:`~repro.dist.supervisor` — the worker supervisor: a sans-io
  restart-budget state machine (:class:`SupervisorCore`), the one process
  fleet (``WorkerFleet``: spawn, SIGKILL, reap, EOF/sentinel death
  events, span drain) and the task farm on it (:class:`WorkerPool`), with
  bounded restart budgets, decorrelated-jitter backoff, and graceful
  degradation;
- :mod:`~repro.dist.shard` — sharded synthetic-population generation
  streaming user blocks to per-shard ``.npz`` archives with checksum
  sidecars and a resumable manifest;
- :mod:`~repro.dist.train` — data-parallel training with lockstep
  gradient averaging, the fleet's other event loop; a killed worker
  rejoins **bit-identically** (the parent replica is the donor), proven
  by ``tests/test_dist_chaos.py`` against the single-process
  ``repro.testing.reference.train_dist_reference``;
- :mod:`~repro.dist.sweep` — an eval-sweep scheduler farming Table-II
  cells to workers with per-cell durable results and
  resume-from-manifest.

Chaos fault points: ``dist.worker.step``, ``dist.shard.write``,
``dist.sweep.cell`` (see DESIGN.md §12).
"""

from .shard import ShardPlan, generate_shard, generate_shards, load_population
from .supervisor import (
    DistError,
    RestartDecision,
    RestartPolicy,
    SupervisorCore,
    WorkerPool,
)
from .sweep import SweepCell, SweepResult, run_sweep, table2_cells
from .train import DistTrainConfig, DistTrainResult, train_dist

__all__ = [
    "DistError",
    "RestartDecision",
    "RestartPolicy",
    "SupervisorCore",
    "WorkerPool",
    "ShardPlan",
    "generate_shard",
    "generate_shards",
    "load_population",
    "DistTrainConfig",
    "DistTrainResult",
    "train_dist",
    "SweepCell",
    "SweepResult",
    "run_sweep",
    "table2_cells",
]
