"""Shared helpers for the benchmark harness.

Every benchmark reproduces one table or figure of the paper at a reduced
(but structurally faithful) scale, prints the resulting table, and persists
it under ``benchmarks/results/`` so the numbers survive pytest's output
capture.  Set ``REPRO_BENCH_PROFILE=full`` for the larger profile.
"""

from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from pathlib import Path

#: One BLAS thread, the values ``perfbench/run.py`` pins.  OpenBLAS reads
#: them once, when numpy loads, so a script is pinned only if it imports
#: this module before numpy.
THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(THREAD_PINS)

from repro.core.trainer import TrainConfig  # noqa: E402 - after the pins
from repro.eval import ExperimentConfig  # noqa: E402
from repro.obs import get_registry  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"
REPO_ROOT = Path(__file__).resolve().parents[1]
TRAJECTORY_PATH = RESULTS_DIR / "trajectory.jsonl"

# History depth per benchmark tag: enough for the regression sentinel
# (newest vs prior) plus a little trend context, without unbounded growth.
TRAJECTORY_KEEP = 5

PROFILES = {
    "quick": dict(
        scale="tiny",
        list_length=12,
        num_train_requests=300,
        num_test_requests=80,
        ranker_interactions=1200,
        hidden=8,
        epochs=4,
    ),
    "small": dict(
        scale="small",
        list_length=15,
        num_train_requests=1200,
        num_test_requests=150,
        ranker_interactions=2000,
        hidden=16,
        epochs=8,
    ),
    "full": dict(
        scale="full",
        list_length=20,
        num_train_requests=3000,
        num_test_requests=300,
        ranker_interactions=4000,
        hidden=16,
        epochs=10,
    ),
}


def active_profile() -> str:
    return os.environ.get("REPRO_BENCH_PROFILE", "small")


def experiment_config(
    dataset: str,
    tradeoff: float = 0.5,
    initial_ranker: str = "din",
    eval_mode: str = "expected",
    seed: int = 0,
    **overrides,
) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from the active bench profile."""
    profile = dict(PROFILES[active_profile()])
    profile.update(overrides)
    epochs = profile.pop("epochs")
    return ExperimentConfig(
        dataset=dataset,
        scale=profile["scale"],
        tradeoff=tradeoff,
        initial_ranker=initial_ranker,
        list_length=profile["list_length"],
        num_train_requests=profile["num_train_requests"],
        num_test_requests=profile["num_test_requests"],
        ranker_interactions=profile["ranker_interactions"],
        hidden=profile["hidden"],
        eval_mode=eval_mode,
        train=TrainConfig(epochs=epochs, batch_size=64, seed=seed),
        seed=seed,
    )


def publish(name: str, text: str) -> None:
    """Print a reproduced table and persist it to benchmarks/results/."""
    print(f"\n{text}\n")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def publish_benchmark(tag: str, payload: dict) -> Path:
    """Persist a machine-readable benchmark record and extend the trajectory.

    Writes ``BENCH_<tag>.json`` at the repo root (the per-PR snapshot) and
    appends the same record to ``benchmarks/results/trajectory.jsonl``,
    keeping the last :data:`TRAJECTORY_KEEP` entries per ``tag`` — the
    per-tag history the regression sentinel (``repro.obs.regress``)
    compares newest-vs-prior over.

    After publishing, the sentinel checks this tag and prints its verdict.
    By default a regression only warns (benchmarks re-run on different
    machines drift); set ``REPRO_BENCH_REGRESS=strict`` to make it raise.
    """
    record = {"tag": tag, **payload}
    snapshot = REPO_ROOT / f"BENCH_{tag}.json"
    snapshot.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    append_trajectory(record)
    _sentinel_check(tag)
    return snapshot


def _sentinel_check(tag: str) -> None:
    """Run the regression sentinel for one tag; warn or (strict) raise."""
    from repro.obs import regress

    report = regress.check_trajectory(TRAJECTORY_PATH, tags=[tag])
    if report.ok:
        if report.compared_tags:
            print(f"regress sentinel: OK ({tag} vs prior entry)")
        return
    lines = "\n".join(row.describe() for row in report.regressions)
    message = f"regress sentinel: REGRESSION in {tag}:\n{lines}"
    if os.environ.get("REPRO_BENCH_REGRESS") == "strict":
        raise AssertionError(message)
    print(message)
    print("(warning only; set REPRO_BENCH_REGRESS=strict to fail on this)")


def append_trajectory(record: dict) -> None:
    """Append ``record`` to the trajectory, keeping per-tag history.

    Earlier records of the same tag are preserved (chronological order,
    oldest first) up to :data:`TRAJECTORY_KEEP`; records of other tags are
    untouched.
    """
    tag = record.get("tag")
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    rows: list[dict] = []
    if TRAJECTORY_PATH.exists():
        for line in TRAJECTORY_PATH.read_text().splitlines():
            if line.strip():
                rows.append(json.loads(line))
    rows.append(record)
    tag_rows = [row for row in rows if row.get("tag") == tag]
    drop = len(tag_rows) - TRAJECTORY_KEEP
    if drop > 0:
        doomed = {id(row) for row in tag_rows[:drop]}
        rows = [row for row in rows if id(row) not in doomed]
    TRAJECTORY_PATH.write_text(
        "".join(json.dumps(row, sort_keys=True) + "\n" for row in rows)
    )


def read_trajectory() -> list[dict]:
    """All benchmark records accumulated so far (empty if none yet)."""
    if not TRAJECTORY_PATH.exists():
        return []
    return [
        json.loads(line)
        for line in TRAJECTORY_PATH.read_text().splitlines()
        if line.strip()
    ]


def bench_histogram(stage: str, **labels):
    """Registry-backed latency histogram for a benchmark stage.

    All benches share the ``bench.<stage>_ms`` namespace in the
    process-global registry, so one pytest-benchmark session accumulates
    p50/p95/p99 across datasets.  Training needs no such series:
    ``train_rapid`` times every batch into the registry's
    ``train.batch_ms``.
    """
    return get_registry().histogram(f"bench.{stage}_ms", **labels)


@contextmanager
def bench_timer(stage: str, **labels):
    """Time a block into :func:`bench_histogram`'s series (milliseconds)."""
    start = time.perf_counter()
    try:
        yield
    finally:
        bench_histogram(stage, **labels).observe(
            1000.0 * (time.perf_counter() - start)
        )


def interleaved_min_of_k(steps, repeats: int = 5) -> dict[str, float]:
    """Interleaved min-of-k measurement over named steps.

    ``steps`` is a sequence of ``(name, fn)`` pairs.  A named ``fn``
    returns one measured duration in **seconds** (typically itself a
    minimum over inner rounds); a pair with ``name=None`` is a side
    effect (an arm/disarm or enable/disable cycle) whose return value is
    ignored.  All steps run in order, ``repeats`` times, and the result
    maps each name to its minimum across repeats.

    Why this shape: the *minimum* observed latency isolates the cost of
    the code path itself (scheduler preemption and cache pollution only
    ever make a sample slower), and *interleaving* the compared
    conditions puts slow machine drift on both sides of every ratio.
    Measuring condition A's k rounds and then condition B's — the
    pattern this helper replaces — lets a background compile or thermal
    ramp land entirely on one side, which is how overhead fractions go
    negative.
    """
    steps = list(steps)
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    names = [name for name, _ in steps if name is not None]
    if len(names) != len(set(names)):
        raise ValueError("step names must be unique")
    best: dict[str, float] = {name: float("inf") for name in names}
    for _ in range(repeats):
        for name, fn in steps:
            value = fn()
            if name is not None:
                best[name] = min(best[name], float(value))
    return best
