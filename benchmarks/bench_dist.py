"""Benchmark: data-parallel training counts and a measured W=1 vs W=2 epoch.

Gates, on exact counts that repeat run to run for the ``repro.dist``
process fleet:

- **steps per epoch** — read from the ``dist.steps`` counter of a real
  ``train_dist`` run, at W=1 and W=2; each must equal ``ceil(N / W / B)``
  (N requests round-robin sharded, B per-worker batch);
- **pickled gradient bytes per step** — every live worker ships one
  gradient list (one float64 array per parameter) per lockstep step, so a
  step moves ``W`` times the pickled size of that list.  The per-worker
  size for this bench's model is pinned in ``GRAD_BYTES_PER_WORKER``; a
  change to the model or to what a worker ships moves it.

Measured, not gated: the wall-clock epoch of the process fleet at W=1 and
W=2 (interleaved min of k, fork and adopt included).  On a host with two
shared cores the parent and W workers timeslice, so this ratio is not a
steady workload and gating it would gate the host, not the code.

BLAS runs on one thread (``bench_utils`` pins it before numpy loads), so
W workers never oversubscribe the cores with BLAS threads.

Run directly::

    PYTHONPATH=src python benchmarks/bench_dist.py

Results land in ``BENCH_pr10.json`` and the shared trajectory via
:func:`publish_benchmark` (which also runs the regression sentinel).
"""

from __future__ import annotations

import os
import pickle
import time
from math import ceil

# before numpy: bench_utils pins BLAS to one thread
from bench_utils import interleaved_min_of_k, publish_benchmark

import numpy as np

from repro import nn
from repro.core import RapidConfig, TrainConfig, make_rapid_variant
from repro.core.trainer import backward_batch
from repro.data import RankingRequest, build_batch, make_taobao_world
from repro.dist import DistTrainConfig, train_dist
from repro.obs import get_registry

BENCH_TAG = "pr10"
NUM_REQUESTS = 256
LIST_LENGTH = 10
BATCH_SIZE = 32
EPOCHS = 2
REPEATS = 3
WORLD_SIZES = (1, 2)
#: Pickled size of one worker's per-step gradient list for the hidden=8
#: RAPID-det model below.
GRAD_BYTES_PER_WORKER = 27424


def _setup():
    world = make_taobao_world("tiny", seed=0)
    histories = world.sample_histories()
    rng = np.random.default_rng(0)
    requests = []
    for _ in range(NUM_REQUESTS):
        user = int(rng.integers(world.config.num_users))
        items = rng.choice(
            world.config.num_items, size=LIST_LENGTH, replace=False
        )
        clicks = (rng.random(LIST_LENGTH) < 0.3).astype(float)
        requests.append(
            RankingRequest(user, items, rng.normal(size=LIST_LENGTH), clicks=clicks)
        )
    rapid_config = RapidConfig(
        user_dim=world.population.feature_dim,
        item_dim=world.catalog.feature_dim,
        num_topics=world.catalog.num_topics,
        hidden=8,
        seed=0,
    )
    return world, histories, requests, rapid_config


def _train_config() -> TrainConfig:
    return TrainConfig(epochs=EPOCHS, batch_size=BATCH_SIZE, seed=0)


def _fleet_run(setup, world_size: int) -> tuple[float, int]:
    """One process-fleet run: (seconds per epoch, lockstep steps per epoch)."""
    world, histories, requests, rapid_config = setup
    model = make_rapid_variant("rapid-det", rapid_config)
    steps = get_registry().counter("dist.steps")
    steps_before = steps.value
    start = time.perf_counter()
    train_dist(
        model,
        requests,
        world.catalog,
        world.population,
        histories,
        config=_train_config(),
        dist=DistTrainConfig(world_size=world_size),
    )
    seconds = time.perf_counter() - start
    return seconds / EPOCHS, int(steps.value - steps_before) // EPOCHS


def _grad_bytes_per_worker(setup) -> int:
    """Pickled size of the gradient list one worker ships per step."""
    world, histories, requests, rapid_config = setup
    config = _train_config()
    model = make_rapid_variant("rapid-det", rapid_config)
    optimizer = nn.Adam(model.parameters(), lr=config.lr)
    model.train()
    batch = build_batch(
        requests[:BATCH_SIZE],
        world.catalog,
        world.population,
        histories,
        topic_history_length=config.topic_history_length,
        flat_history_length=config.flat_history_length,
    )
    backward_batch(model, optimizer, batch, np.random.default_rng(0))
    return len(pickle.dumps([param.grad for param in model.parameters()]))


def measure() -> dict:
    setup = _setup()
    steps = {w: _fleet_run(setup, w)[1] for w in WORLD_SIZES}  # also warms up
    best = interleaved_min_of_k(
        [(f"w{w}", lambda w=w: _fleet_run(setup, w)[0]) for w in WORLD_SIZES],
        repeats=REPEATS,
    )
    grad_bytes = _grad_bytes_per_worker(setup)
    result = {
        "cores": os.cpu_count(),
        "num_requests": NUM_REQUESTS,
        "batch_size": BATCH_SIZE,
        "grad_bytes_per_worker": grad_bytes,
    }
    for w in WORLD_SIZES:
        result[f"w{w}_steps_per_epoch"] = steps[w]
        result[f"w{w}_expected_steps_per_epoch"] = ceil(NUM_REQUESTS / w / BATCH_SIZE)
        result[f"w{w}_grad_bytes_per_step"] = w * grad_bytes
        result[f"w{w}_measured_epoch_s"] = best[f"w{w}"]
    result["measured_w2_over_w1_epoch"] = best["w2"] / best["w1"]
    return result


def main() -> None:
    result = measure()
    for w in WORLD_SIZES:
        print(
            f"W={w}: {result[f'w{w}_steps_per_epoch']} steps/epoch, "
            f"{result[f'w{w}_grad_bytes_per_step']} gradient bytes/step, "
            f"measured epoch {result[f'w{w}_measured_epoch_s']:.3f} s"
        )
    print(
        f"measured W=2 / W=1 epoch: {result['measured_w2_over_w1_epoch']:.2f} "
        f"on {result['cores']} core(s) (not gated)"
    )
    path = publish_benchmark(BENCH_TAG, result)
    print(f"published {path}")
    for w in WORLD_SIZES:
        steps, expected = (
            result[f"w{w}_steps_per_epoch"],
            result[f"w{w}_expected_steps_per_epoch"],
        )
        assert steps == expected, (
            f"W={w}: {steps} steps per epoch, expected ceil(N/W/B) = {expected}"
        )
    assert result["grad_bytes_per_worker"] == GRAD_BYTES_PER_WORKER, (
        f"a worker ships {result['grad_bytes_per_worker']} pickled gradient "
        f"bytes per step, expected {GRAD_BYTES_PER_WORKER}"
    )
    print("OK (steps per epoch == ceil(N/W/B), gradient bytes per step exact)")


if __name__ == "__main__":
    main()
