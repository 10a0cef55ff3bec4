"""Microbenchmark: obs v2 cost with the serving-grade telemetry *disabled*.

The opt-in observability surfaces — the SLO monitor, the sampling
profiler and the op profiler — cost nothing until enabled: the hot paths
pay one module-global branch per call site.  This bench proves that
contract with wall clocks, on both instrumented hot paths:

- **training residue** — per-batch train cost before any obs-v2 use vs
  after a full enable/disable cycle (SLO monitor + sampling profiler +
  op profiler).  Gated under ``MAX_DISABLED_OVERHEAD`` (5%).
- **serving residue** — per-request ``rerank`` latency, same cycle, same
  gate.
- **inference-path residue** — per-request latency of a neural reranker
  on the tape-free float32 path (``repro.nn.inference``), same cycle,
  same gate: the op profiler wraps the fused scan ops that call those
  kernels, and disabling it must put the raw ops back.

All gates compare *minimum* observed latencies from interleaved rounds
(:func:`bench_utils.interleaved_min_of_k`): the min isolates the code
path's own cost, and interleaving keeps machine drift off the ratios.

Run the timing assertions directly::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

Results land in ``BENCH_obs_v2.json`` and the shared
``benchmarks/results/trajectory.jsonl`` via :func:`publish_benchmark`,
which also runs the regression sentinel on the new entry.
"""

from __future__ import annotations

import time

from bench_utils import interleaved_min_of_k, publish_benchmark

from repro.core.rapid import RapidConfig, make_rapid_variant
from repro.core.trainer import RapidReranker, TrainConfig, train_rapid
from repro.data import build_batch
from repro.eval import ExperimentConfig, prepare_bundle
from repro.nn import inference
from repro.nn import tensor as nn_tensor
from repro.obs import get_registry, reset_registry
from repro.obs.autograd import (
    disable_op_profiler,
    enable_op_profiler,
    is_op_profiler_enabled,
)
from repro.obs.profiler import start_sampling, stop_sampling
from repro.obs.slo import serving_slo
from repro.rerank import MMRReranker

BENCH_TAG = "obs_v2"
MAX_DISABLED_OVERHEAD = 0.05
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


def raw_ops() -> dict[str, object]:
    """The ``Tensor`` attribute behind every profiled op, as installed now."""
    return {name: nn_tensor.Tensor.__dict__[name] for name in nn_tensor.PROFILED_OPS}


def _cycle_obs() -> None:
    """Enable and disable every opt-in obs-v2 surface.

    An SLO monitor taking records, the sampling profiler, and the op
    profiler (which wraps every op in ``PROFILED_OPS``, the fused scans
    over the tape-free kernels included) all turn on and back off; any
    residue left behind (a lingering sampler thread, a wrapper not
    removed) is exactly what the gates exist for.
    """
    before = raw_ops()
    monitor = serving_slo()
    monitor.record(latency_ms=1.0)
    monitor.evaluate()
    profiler = start_sampling(hz=50)
    profiler.sample_once()
    stop_sampling()
    enable_op_profiler()
    disable_op_profiler()
    assert not is_op_profiler_enabled()
    assert raw_ops() == before


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
    """Overhead breakdown for the train and serving hot paths."""
    bundle = _bundle()
    batch = build_batch(
        bundle.test_requests,
        bundle.world.catalog,
        bundle.world.population,
        bundle.histories,
    )
    reranker = MMRReranker()
    neural = RapidReranker(
        RapidConfig(
            user_dim=bundle.world.population.feature_dim,
            item_dim=bundle.world.catalog.feature_dim,
            num_topics=bundle.world.catalog.num_topics,
            hidden=4,
            seed=0,
        ),
        variant="rapid-pro",
    )

    def best_infer_seconds() -> float:
        with inference.use_infer(True):
            return best_rerank_seconds(neural, batch)

    # Steady-state the process (allocator pools, numpy caches, first-call
    # module loads) before anything is timed.
    best_batch_seconds(bundle, runs=1)
    best_rerank_seconds(reranker, batch, rounds=20)
    best_infer_seconds()
    _cycle_obs()

    best = interleaved_min_of_k(
        [
            ("train_baseline", lambda: best_batch_seconds(bundle)),
            ("rerank_baseline", lambda: best_rerank_seconds(reranker, batch)),
            ("infer_baseline", best_infer_seconds),
            (None, _cycle_obs),
            ("train_disabled", lambda: best_batch_seconds(bundle)),
            ("rerank_disabled", lambda: best_rerank_seconds(reranker, batch)),
            ("infer_disabled", best_infer_seconds),
        ],
        repeats=REPEATS,
    )

    return {
        "train_baseline_ms_per_batch": 1e3 * best["train_baseline"],
        "train_disabled_ms_per_batch": 1e3 * best["train_disabled"],
        "train_disabled_overhead_fraction": best["train_disabled"]
        / best["train_baseline"]
        - 1.0,
        "rerank_baseline_ms_per_request": 1e3 * best["rerank_baseline"],
        "rerank_disabled_ms_per_request": 1e3 * best["rerank_disabled"],
        "rerank_disabled_overhead_fraction": best["rerank_disabled"]
        / best["rerank_baseline"]
        - 1.0,
        "infer_baseline_ms_per_request": 1e3 * best["infer_baseline"],
        "infer_disabled_ms_per_request": 1e3 * best["infer_disabled"],
        "infer_disabled_overhead_fraction": best["infer_disabled"]
        / best["infer_baseline"]
        - 1.0,
    }


def main() -> None:
    result = measure()
    print(
        f"train baseline:      {result['train_baseline_ms_per_batch']:.2f} ms/batch\n"
        f"train after cycle:   {result['train_disabled_ms_per_batch']:.2f} ms/batch "
        f"({100 * result['train_disabled_overhead_fraction']:+.2f}%)\n"
        f"rerank baseline:     {result['rerank_baseline_ms_per_request']:.3f} ms/req\n"
        f"rerank after cycle:  {result['rerank_disabled_ms_per_request']:.3f} ms/req "
        f"({100 * result['rerank_disabled_overhead_fraction']:+.2f}%)\n"
        f"infer baseline:      {result['infer_baseline_ms_per_request']:.3f} ms/req\n"
        f"infer after cycle:   {result['infer_disabled_ms_per_request']:.3f} ms/req "
        f"({100 * result['infer_disabled_overhead_fraction']:+.2f}%)"
    )
    path = publish_benchmark(BENCH_TAG, result)
    print(f"published {path}")
    assert result["train_disabled_overhead_fraction"] < MAX_DISABLED_OVERHEAD, (
        f"disabled obs-v2 residue on training "
        f"{result['train_disabled_overhead_fraction']:.2%} exceeds the "
        f"{MAX_DISABLED_OVERHEAD:.0%} budget"
    )
    assert result["rerank_disabled_overhead_fraction"] < MAX_DISABLED_OVERHEAD, (
        f"disabled obs-v2 residue on rerank "
        f"{result['rerank_disabled_overhead_fraction']:.2%} exceeds the "
        f"{MAX_DISABLED_OVERHEAD:.0%} budget"
    )
    assert result["infer_disabled_overhead_fraction"] < MAX_DISABLED_OVERHEAD, (
        f"disabled obs-v2 residue on the inference path "
        f"{result['infer_disabled_overhead_fraction']:.2%} exceeds the "
        f"{MAX_DISABLED_OVERHEAD:.0%} budget"
    )
    print(f"OK (disabled residue < {MAX_DISABLED_OVERHEAD:.0%} budget)")


if __name__ == "__main__":
    main()
