"""Serving-latency benchmark for the tape-free inference path (PR 8).

Times ``Reranker.rerank`` for RAPID at serving shapes — one request with a
few hundred candidates, the regime the paper's efficiency section (Table 6)
targets — under three interleaved conditions:

- **infer** — the tape-free float32 path (``repro.nn.inference``), the
  serving default;
- **tape** — ``inference.use_infer(False)``: float64 autograd forward
  under ``no_grad`` with the fused recurrent kernels (the pre-PR-8 serving
  path, and the bit-identity reference the golden slates pin);
- **tape_composed** — ``use_infer(False)`` + ``kernels.use_fused(False)``:
  the tape path with the composed per-op recurrent references of
  ``repro.testing.reference`` swapped in, for the cumulative trajectory
  across PRs.

All comparisons are interleaved min-of-k (:func:`bench_utils
.interleaved_min_of_k`): minima isolate the path's own cost, interleaving
puts machine drift on both sides of every ratio.

Acceptance (ISSUE PR 8): infer >= 5x faster than tape on the serving shape.

Run::

    PYTHONPATH=src python benchmarks/bench_inference.py

Results land in ``BENCH_pr8.json`` and the shared trajectory via
:func:`bench_utils.publish_benchmark` (which also runs the regression
sentinel on the new entry).
"""

from __future__ import annotations

import time

# before numpy: bench_utils pins BLAS to one thread
from bench_utils import interleaved_min_of_k, publish_benchmark

import numpy as np

from repro.core.rapid import RapidConfig
from repro.core.trainer import RapidReranker
from repro.data import RankingRequest, build_batch, make_taobao_world
from repro.nn import inference, kernels

BENCH_TAG = "pr8"
MIN_SPEEDUP = 5.0
REPEATS = 5
ROUNDS = 30  # rerank calls per inner min

# Serving shapes: (batch, candidates).  The single-request shape is the
# latency target; the batched shape shows throughput-style serving.
SHAPES = [(1, 200), (8, 50)]
HIDDEN = 16


def _serving_batch(world, histories, batch_size: int, list_length: int):
    rng = np.random.default_rng(42)
    requests = []
    for _ in range(batch_size):
        items = rng.choice(world.config.num_items, size=list_length, replace=False)
        requests.append(
            RankingRequest(
                int(rng.integers(world.config.num_users)),
                items,
                rng.normal(size=list_length),
            )
        )
    return build_batch(requests, world.catalog, world.population, histories)


def _best_rerank_seconds(reranker, batch, rounds: int = ROUNDS) -> float:
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        reranker.rerank(batch)
        best = min(best, time.perf_counter() - start)
    return best


def bench_shape(reranker, world, histories, batch_size: int, list_length: int) -> dict:
    batch = _serving_batch(world, histories, batch_size, list_length)

    # Warm both paths outside the timed region: the infer path casts (and
    # gate-reorders) weights on first use, the tape path warms numpy pools.
    with inference.use_infer(True):
        reranker.rerank(batch)
    with inference.use_infer(False):
        reranker.rerank(batch)
        with kernels.use_fused(False):
            reranker.rerank(batch)

    def timed(infer: bool, fused: bool = True):
        def step() -> float:
            with inference.use_infer(infer), kernels.use_fused(fused):
                return _best_rerank_seconds(reranker, batch)

        return step

    best = interleaved_min_of_k(
        [
            ("infer", timed(True)),
            ("tape", timed(False)),
            ("tape_composed", timed(False, fused=False)),
        ],
        repeats=REPEATS,
    )
    return {
        "batch_size": batch_size,
        "list_length": list_length,
        "infer_ms": 1e3 * best["infer"],
        "tape_ms": 1e3 * best["tape"],
        "tape_composed_ms": 1e3 * best["tape_composed"],
        "speedup_vs_tape": best["tape"] / best["infer"],
        "speedup_vs_composed": best["tape_composed"] / best["infer"],
    }


def measure() -> dict:
    world = make_taobao_world("small", seed=0)
    histories = world.sample_histories()
    reranker = RapidReranker(
        RapidConfig(
            user_dim=world.population.feature_dim,
            item_dim=world.catalog.feature_dim,
            num_topics=world.catalog.num_topics,
            hidden=HIDDEN,
            seed=0,
        ),
        variant="rapid-pro",
    )
    # Untrained weights: latency depends on shapes, not weight values.
    rows = [bench_shape(reranker, world, histories, b, l) for b, l in SHAPES]
    serving = rows[0]
    return {
        "benchmark": "tape_free_inference",
        "hidden": HIDDEN,
        "rounds": ROUNDS,
        "repeats": REPEATS,
        "shapes": rows,
        # Flat copies of the acceptance shape so the regression sentinel
        # (which compares top-level numeric keys) tracks them across PRs.
        "serving_infer_ms": serving["infer_ms"],
        "serving_tape_ms": serving["tape_ms"],
        "serving_speedup_vs_tape": serving["speedup_vs_tape"],
    }


def main() -> None:
    payload = measure()
    header = (
        f"{'shape':<10} {'infer ms':>10} {'tape ms':>10} "
        f"{'composed ms':>12} {'vs tape':>8} {'vs composed':>12}"
    )
    print(header)
    print("-" * len(header))
    for row in payload["shapes"]:
        shape = f"{row['batch_size']}x{row['list_length']}"
        print(
            f"{shape:<10} {row['infer_ms']:>10.3f} {row['tape_ms']:>10.3f} "
            f"{row['tape_composed_ms']:>12.3f} {row['speedup_vs_tape']:>7.2f}x "
            f"{row['speedup_vs_composed']:>11.2f}x"
        )
    path = publish_benchmark(BENCH_TAG, payload)
    print(f"\nwrote {path}")
    speedup = payload["serving_speedup_vs_tape"]
    assert speedup >= MIN_SPEEDUP, (
        f"inference-path speedup {speedup:.2f}x on the serving shape is "
        f"below the {MIN_SPEEDUP:.0f}x acceptance bar"
    )
    print(f"OK (inference path >= {MIN_SPEEDUP:.0f}x vs tape on serving shape)")


if __name__ == "__main__":
    main()
