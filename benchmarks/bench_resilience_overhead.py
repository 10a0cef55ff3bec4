"""Microbenchmark: disabled-path cost of the resilience layer.

Fault points (``repro.resilience.chaos.faultpoint``) are compiled into the
trainer, data I/O, and every ``Reranker.rerank``; the contract is that a
*disarmed* process pays only a module-global load and a ``None`` check per
marker.  This bench proves that with wall clocks, on both instrumented hot
paths:

- **training residue** — per-batch train cost before any chaos use vs
  after an arm/disarm cycle (a leaked plan, stale op wrapper, or lingering
  closure would show up here).  Gated under ``MAX_DISABLED_OVERHEAD`` (5%).
- **serving residue** — per-request ``rerank`` latency, same protocol,
  same gate.
- **wrapper overhead** — per-request cost of serving through a healthy
  :class:`~repro.resilience.degrade.ResilientReranker` (deadline check +
  output validation + breaker bookkeeping) vs calling the primary
  directly.  Gated under ``MAX_WRAPPER_OVERHEAD`` (5%).

All gates compare *minimum* observed latencies from interleaved rounds:
the min isolates the cost of the code path itself, since scheduler and
load spikes only ever make a sample slower.

Run the timing assertions directly::

    PYTHONPATH=src python benchmarks/bench_resilience_overhead.py

Results land in ``BENCH_resilience_overhead.json`` and the shared
``benchmarks/results/trajectory.jsonl`` via :func:`publish_benchmark`.
"""

from __future__ import annotations

import time

from bench_utils import interleaved_min_of_k, publish_benchmark

from repro.core.rapid import RapidConfig, make_rapid_variant
from repro.core.trainer import TrainConfig, train_rapid
from repro.data import build_batch
from repro.eval import ExperimentConfig, prepare_bundle
from repro.obs import get_registry, reset_registry
from repro.rerank import MMRReranker
from repro.resilience import FaultSpec, chaos
from repro.resilience.degrade import CircuitBreaker, ResilientReranker

BENCH_TAG = "resilience_overhead"
MAX_DISABLED_OVERHEAD = 0.05
MAX_WRAPPER_OVERHEAD = 0.05
RERANK_ROUNDS = 300
TRAIN_RUNS = 4
REPEATS = 5


def _bundle():
    return prepare_bundle(
        ExperimentConfig(
            dataset="taobao",
            scale="tiny",
            list_length=8,
            num_train_requests=48,
            num_test_requests=8,
            ranker_interactions=300,
            hidden=4,
            train=TrainConfig(epochs=2, batch_size=16),
            seed=0,
        )
    )


def _cycle_chaos() -> None:
    """Arm and disarm a plan that never matches a real site."""
    with chaos(FaultSpec("bench.no-such-site"), FaultSpec("op.relu", kind="nan")):
        pass


def best_batch_seconds(bundle, runs: int = TRAIN_RUNS) -> float:
    """Fastest per-batch wall time across ``runs`` small real training runs."""
    rapid_config = RapidConfig(
        user_dim=bundle.world.population.feature_dim,
        item_dim=bundle.world.catalog.feature_dim,
        num_topics=bundle.world.catalog.num_topics,
        hidden=4,
        seed=0,
    )
    best = float("inf")
    for _ in range(runs):
        reset_registry()  # train.batch_ms then holds this run only
        train_rapid(
            make_rapid_variant("rapid-det", rapid_config),
            bundle.train_requests,
            bundle.world.catalog,
            bundle.world.population,
            bundle.histories,
            config=bundle.config.train,
        )
        batches = get_registry().histogram("train.batch_ms")
        best = min(best, batches.quantile(0.0) / 1000)
    return best


def best_rerank_seconds(reranker, batch, rounds: int = RERANK_ROUNDS) -> float:
    """Fastest single-call latency of ``reranker.rerank`` over ``rounds``."""
    reranker.rerank(batch)  # warm-up outside the timed region
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        reranker.rerank(batch)
        best = min(best, time.perf_counter() - start)
    return best


def measure() -> dict[str, float]:
    """Overhead breakdown for the train and serving hot paths.

    The compared conditions are measured *interleaved* (baseline, cycle,
    disarmed, wrapped, repeat) so machine-load drift lands on both sides of
    each ratio, and every quantity is the minimum across all repeats.
    """
    bundle = _bundle()
    batch = build_batch(
        bundle.test_requests,
        bundle.world.catalog,
        bundle.world.population,
        bundle.histories,
    )
    primary = MMRReranker()
    resilient = ResilientReranker(
        MMRReranker(),
        fallbacks=[],
        deadline_ms=None,
        breaker=CircuitBreaker(name="bench"),
    )

    # Steady-state the process (allocator pools, numpy caches, first-call
    # module loads) before anything is timed, so neither side of a ratio
    # eats one-time costs.
    best_batch_seconds(bundle, runs=1)
    best_rerank_seconds(primary, batch, rounds=20)
    best_rerank_seconds(resilient, batch, rounds=20)

    # Full arm/disarm cycle (including a nan spec, so the op-dispatch
    # surface is wrapped and unwrapped) between the baseline and disarmed
    # samples: any residue is exactly what the gates exist for.  The
    # interleaved min-of-k protocol lives in ``bench_utils``.
    best = interleaved_min_of_k(
        [
            ("train_baseline", lambda: best_batch_seconds(bundle)),
            ("rerank_baseline", lambda: best_rerank_seconds(primary, batch)),
            (None, _cycle_chaos),
            ("train_disarmed", lambda: best_batch_seconds(bundle)),
            ("rerank_disarmed", lambda: best_rerank_seconds(primary, batch)),
            ("rerank_wrapped", lambda: best_rerank_seconds(resilient, batch)),
        ],
        repeats=REPEATS,
    )

    return {
        "train_baseline_ms_per_batch": 1e3 * best["train_baseline"],
        "train_disarmed_ms_per_batch": 1e3 * best["train_disarmed"],
        "train_disabled_overhead_fraction": best["train_disarmed"]
        / best["train_baseline"]
        - 1.0,
        "rerank_baseline_ms_per_request": 1e3 * best["rerank_baseline"],
        "rerank_disarmed_ms_per_request": 1e3 * best["rerank_disarmed"],
        "rerank_disabled_overhead_fraction": best["rerank_disarmed"]
        / best["rerank_baseline"]
        - 1.0,
        "rerank_wrapped_ms_per_request": 1e3 * best["rerank_wrapped"],
        "wrapper_overhead_fraction": best["rerank_wrapped"]
        / best["rerank_disarmed"]
        - 1.0,
    }


def main() -> None:
    result = measure()
    print(
        f"train baseline:      {result['train_baseline_ms_per_batch']:.2f} ms/batch\n"
        f"train after cycle:   {result['train_disarmed_ms_per_batch']:.2f} ms/batch "
        f"({100 * result['train_disabled_overhead_fraction']:+.2f}%)\n"
        f"rerank baseline:     {result['rerank_baseline_ms_per_request']:.3f} ms/req\n"
        f"rerank after cycle:  {result['rerank_disarmed_ms_per_request']:.3f} ms/req "
        f"({100 * result['rerank_disabled_overhead_fraction']:+.2f}%)\n"
        f"resilient wrapper:   {result['rerank_wrapped_ms_per_request']:.3f} ms/req "
        f"({100 * result['wrapper_overhead_fraction']:+.2f}%)"
    )
    path = publish_benchmark(BENCH_TAG, result)
    print(f"published {path}")
    assert result["train_disabled_overhead_fraction"] < MAX_DISABLED_OVERHEAD, (
        f"disarmed chaos residue on training "
        f"{result['train_disabled_overhead_fraction']:.2%} exceeds the "
        f"{MAX_DISABLED_OVERHEAD:.0%} budget"
    )
    assert result["rerank_disabled_overhead_fraction"] < MAX_DISABLED_OVERHEAD, (
        f"disarmed chaos residue on rerank "
        f"{result['rerank_disabled_overhead_fraction']:.2%} exceeds the "
        f"{MAX_DISABLED_OVERHEAD:.0%} budget"
    )
    assert result["wrapper_overhead_fraction"] < MAX_WRAPPER_OVERHEAD, (
        f"ResilientReranker wrapper overhead "
        f"{result['wrapper_overhead_fraction']:.2%} exceeds the "
        f"{MAX_WRAPPER_OVERHEAD:.0%} budget"
    )
    print(f"OK (all overheads < {MAX_DISABLED_OVERHEAD:.0%} budget)")


if __name__ == "__main__":
    main()
