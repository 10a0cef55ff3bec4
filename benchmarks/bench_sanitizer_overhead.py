"""Microbenchmark: numerical sanitizer cost, disabled and enabled.

The sanitizer (``repro.testing.sanitize``) patches the Tensor op-dispatch
surface only while enabled; when disabled nothing is patched, so training
must run at full speed.  This bench proves that contract with wall clocks:

- **disabled residue** — per-batch training cost before any sanitizer use
  vs after an enable/disable cycle (a stale wrapper or leaked closure would
  show up here).  Gated under ``MAX_DISABLED_OVERHEAD`` (5%).
- **enabled overhead** — the same run with the sanitizer active, reported
  (not gated): the price of trapping NaN/Inf mid-graph, for TESTING.md's
  "when to enable" guidance.

Both ratios compare *minimum* observed per-batch latencies from
interleaved rounds (:func:`bench_utils.interleaved_min_of_k`): the min
isolates the code path's own cost, and interleaving keeps machine-load
drift off the ratios — mean-of-one-run measurement made the residue
fraction swing negative on busy machines.

Run the timing assertion directly::

    PYTHONPATH=src python benchmarks/bench_sanitizer_overhead.py

Results land in ``BENCH_sanitizer_overhead.json`` and the shared
``benchmarks/results/trajectory.jsonl`` via :func:`publish_benchmark`.
"""

from __future__ import annotations

from bench_utils import interleaved_min_of_k, publish_benchmark

from repro.core.rapid import RapidConfig, make_rapid_variant
from repro.core.trainer import TrainConfig, train_rapid
from repro.eval import ExperimentConfig, prepare_bundle
from repro.obs import get_registry, reset_registry
from repro.testing import disable_sanitizer, enable_sanitizer

BENCH_TAG = "sanitizer_overhead"
MAX_DISABLED_OVERHEAD = 0.05
TRAIN_RUNS = 3
REPEATS = 4


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


def best_batch_seconds(bundle, sanitized: bool = False, runs: int = TRAIN_RUNS) -> float:
    """Fastest per-batch wall time across ``runs`` small real training runs."""
    rapid_config = RapidConfig(
        user_dim=bundle.world.population.feature_dim,
        item_dim=bundle.world.catalog.feature_dim,
        num_topics=bundle.world.catalog.num_topics,
        hidden=4,
        seed=0,
    )
    best = float("inf")
    if sanitized:
        enable_sanitizer()
    try:
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
    finally:
        if sanitized:
            disable_sanitizer()
    return best


def _cycle_sanitizer() -> None:
    """Full enable/disable cycle: any residue (stale wrappers, lingering
    closures) is exactly what the gate exists for."""
    enable_sanitizer()
    disable_sanitizer()


def measure() -> dict[str, float]:
    """Overhead breakdown: baseline, post-cycle residue, enabled cost."""
    bundle = _bundle()
    best_batch_seconds(bundle, runs=1)  # steady-state before timing
    best = interleaved_min_of_k(
        [
            ("baseline", lambda: best_batch_seconds(bundle)),
            (None, _cycle_sanitizer),
            ("disabled", lambda: best_batch_seconds(bundle)),
            ("enabled", lambda: best_batch_seconds(bundle, sanitized=True)),
        ],
        repeats=REPEATS,
    )
    return {
        "baseline_ms_per_batch": 1e3 * best["baseline"],
        "disabled_ms_per_batch": 1e3 * best["disabled"],
        "enabled_ms_per_batch": 1e3 * best["enabled"],
        "disabled_overhead_fraction": best["disabled"] / best["baseline"] - 1.0,
        "enabled_overhead_fraction": best["enabled"] / best["baseline"] - 1.0,
    }


def main() -> None:
    result = measure()
    print(
        f"baseline:                 {result['baseline_ms_per_batch']:.2f} ms/batch\n"
        f"after enable/disable:     {result['disabled_ms_per_batch']:.2f} ms/batch "
        f"({100 * result['disabled_overhead_fraction']:+.2f}%)\n"
        f"sanitizer enabled:        {result['enabled_ms_per_batch']:.2f} ms/batch "
        f"({100 * result['enabled_overhead_fraction']:+.2f}%)"
    )
    path = publish_benchmark(BENCH_TAG, result)
    print(f"published {path}")
    assert result["disabled_overhead_fraction"] < MAX_DISABLED_OVERHEAD, (
        f"sanitizer-disabled residue "
        f"{result['disabled_overhead_fraction']:.2%} exceeds the "
        f"{MAX_DISABLED_OVERHEAD:.0%} budget"
    )
    print(f"OK (disabled residue < {MAX_DISABLED_OVERHEAD:.0%} budget)")


if __name__ == "__main__":
    main()
