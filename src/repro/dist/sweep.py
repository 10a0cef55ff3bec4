"""Kill-safe evaluation sweeps over the paper's Table-II grid.

A sweep is a bag of independent *cells* — one ``(dataset, lambda, model)``
combination each — farmed to a :class:`~repro.dist.supervisor.WorkerPool`.
Cells are embarrassingly parallel and idempotent, so fault tolerance is
pure bookkeeping:

- every finished cell is durable the moment it exists: the worker writes
  ``cells/<cell_id>.json`` through
  :func:`~repro.utils.atomicio.atomic_write_bytes` plus a SHA-256
  sidecar, *before* returning the result over the pipe;
- a cell whose file already verifies is **skipped** — both by the parent
  before dispatch and by the worker itself (covering the race where a
  worker died after the write but before the ack, and the supervisor
  requeued the cell);
- a killed worker's in-flight cell is requeued under the supervisor's
  retry budget; an exhausted budget degrades the fleet and the surviving
  workers drain the queue.

``manifest.json`` (written atomically after the run) lists every
completed cell with its digest, so a later :func:`run_sweep` over the
same grid resumes from whatever survived — rerunning a finished sweep is
a no-op that just reloads the files.

The ``dist.sweep.cell`` fault point sits at the top of the worker-side
cell body; parent-side chaos on the same site (via the pool's dispatch
hook) exercises kill/requeue with ``plan.fires()`` visible to tests.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Sequence

from ..eval.experiment import evaluate_reranker, make_reranker, prepare_bundle
from ..eval.protocol import ExperimentConfig
from ..obs import get_run_logger, trace
from ..resilience.chaos import faultpoint
from ..utils.atomicio import (
    atomic_write_bytes,
    checksum_sidecar_path,
    verify_checksum_sidecar,
    write_checksum_sidecar,
)
from .supervisor import DistError, RestartPolicy, WorkerPool

__all__ = ["SweepCell", "SweepResult", "table2_cells", "run_sweep"]

_MANIFEST_VERSION = 1


@dataclass(frozen=True)
class SweepCell:
    """One Table-II cell: a model evaluated under one experiment config."""

    cell_id: str
    model: str
    config: ExperimentConfig


@dataclass
class SweepResult:
    """Everything one sweep run produced (or recovered)."""

    results: dict[str, dict]
    manifest_path: Path
    restarts: int = 0
    degraded: list[int] = field(default_factory=list)
    span_records: list[dict] = field(default_factory=list)


def table2_cells(
    models: Sequence[str] = ("rapid-pro",),
    datasets: Sequence[str] = ("taobao", "movielens"),
    tradeoffs: Sequence[float] = (0.5, 0.9, 1.0),
    base: ExperimentConfig | None = None,
) -> list[SweepCell]:
    """The paper's Table-II grid as sweep cells.

    ``base`` carries everything the grid doesn't vary (scale, volumes,
    training config); defaults to :class:`ExperimentConfig`'s defaults.
    """
    base = base if base is not None else ExperimentConfig()
    cells = []
    for dataset in datasets:
        for tradeoff in tradeoffs:
            config = replace(base, dataset=dataset, tradeoff=tradeoff)
            for model in models:
                cells.append(
                    SweepCell(
                        cell_id=f"{dataset}-lam{tradeoff:g}-{model}",
                        model=model,
                        config=config,
                    )
                )
    return cells


def _cell_path(out_dir: Path, cell_id: str) -> Path:
    return out_dir / "cells" / f"{cell_id}.json"


def sweep_manifest_path(out_dir: str | Path) -> Path:
    return Path(out_dir) / "manifest.json"


def _cell_valid(path: Path) -> bool:
    return path.exists() and verify_checksum_sidecar(path) is True


def _load_cell(path: Path) -> dict:
    return json.loads(path.read_text())


def _run_cell(payload) -> dict:
    """Worker-side cell body: durable-or-retryable, idempotent."""
    cell, out_dir = payload
    path = _cell_path(Path(out_dir), cell.cell_id)
    if _cell_valid(path):
        return _load_cell(path)  # predecessor died between write and ack
    faultpoint("dist.sweep.cell")
    with trace(f"dist.sweep.cell:{cell.cell_id}"):
        bundle = prepare_bundle(cell.config)
        reranker = make_reranker(cell.model, bundle)
        if reranker is not None and reranker.requires_training:
            reranker.fit(
                bundle.train_requests,
                bundle.world.catalog,
                bundle.world.population,
                bundle.histories,
            )
        evaluation = evaluate_reranker(reranker, bundle)
    record = {
        "cell_id": cell.cell_id,
        "model": cell.model,
        "tags": cell.config.tags(),
        "metrics": evaluation.metrics,
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_bytes(
        path, json.dumps(record, indent=1).encode("utf-8"), fsync=False
    )
    write_checksum_sidecar(path, fsync=False)
    return record


def run_sweep(
    cells: Sequence[SweepCell],
    out_dir: str | Path,
    num_workers: int = 2,
    policy: RestartPolicy | None = None,
    resume: bool = True,
    sleep=time.sleep,
) -> SweepResult:
    """Farm ``cells`` to a supervised worker pool; durable per-cell results.

    With ``resume`` (default) cells whose result files already verify are
    loaded instead of recomputed — call again after a crash and only the
    unfinished cells run.  Returns every cell's record plus the pool's
    restart/degradation accounting.
    """
    if not cells:
        raise DistError("a sweep needs at least one cell")
    ids = [cell.cell_id for cell in cells]
    if len(set(ids)) != len(ids):
        raise DistError("duplicate cell_id in sweep")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    logger = get_run_logger()
    results: dict[str, dict] = {}
    outstanding: list[SweepCell] = []
    for cell in cells:
        path = _cell_path(out_dir, cell.cell_id)
        if resume and _cell_valid(path):
            results[cell.cell_id] = _load_cell(path)
        else:
            outstanding.append(cell)
    logger.log(
        "dist.sweep.start",
        cells=len(cells),
        recovered=len(results),
        outstanding=len(outstanding),
        workers=num_workers,
    )
    restarts, degraded, spans = 0, [], []
    if outstanding:
        policy = policy if policy is not None else RestartPolicy()
        with WorkerPool(
            num_workers=min(num_workers, len(outstanding)),
            fn=_run_cell,
            policy=policy,
            site="dist.sweep.cell",
            sleep=sleep,
        ) as pool:
            records = pool.run([(cell, str(out_dir)) for cell in outstanding])
            restarts = pool.core.total_restarts
            degraded = sorted(pool.core.removed)
        # span buffers arrive with the workers' "done" messages on close,
        # so they are only complete after the pool context exits
        spans = list(pool.span_buffer)
        for record in records:
            results[record["cell_id"]] = record
    entries = []
    for cell_id in sorted(results):
        path = _cell_path(out_dir, cell_id)
        entries.append(
            {
                "cell_id": cell_id,
                "path": str(path.relative_to(out_dir)),
                "sha256": checksum_sidecar_path(path).read_text().split()[0],
                "status": "done",
            }
        )
    manifest = {"version": _MANIFEST_VERSION, "cells": entries}
    manifest_file = sweep_manifest_path(out_dir)
    atomic_write_bytes(
        manifest_file, json.dumps(manifest, indent=1).encode("utf-8"), fsync=False
    )
    logger.log(
        "dist.sweep.done",
        cells=len(results),
        restarts=restarts,
        degraded=degraded,
    )
    return SweepResult(
        results=results,
        manifest_path=manifest_file,
        restarts=restarts,
        degraded=degraded,
        span_records=spans,
    )
