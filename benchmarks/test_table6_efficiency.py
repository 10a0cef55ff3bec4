"""Table VI — training and inference efficiency: PRM vs DESA vs RAPID.

Reports total training wall-clock (train-all), mean per-batch training time
(train-b), and mean per-batch inference time (test-b) on all three
datasets.  Absolute numbers are hardware-bound (the paper used GPUs; this
reproduction is pure numpy), so the reproduction target is the *relative*
shape: RAPID's per-batch cost is comparable to PRM and it converges in a
similar or lower total time than DESA.
"""

from __future__ import annotations

import time

from repro.core import RapidConfig, RapidReranker
from repro.data import build_batch
from repro.eval import format_table, prepare_bundle
from repro.obs import get_registry
from repro.rerank import DESAReranker, PRMReranker

from bench_utils import bench_histogram, bench_timer, experiment_config, publish


def _measure(make_model, bundle, label: str) -> dict[str, float]:
    world = bundle.world
    dataset = bundle.config.dataset
    model = make_model()
    # Every list-wise model trains on ``train_rapid``, which times each
    # batch into the registry's ``train.batch_ms``; train-b is the mean
    # of the samples this fit adds.
    batches = get_registry().histogram("train.batch_ms")
    count, total = batches.count, batches.sum
    start = time.perf_counter()
    model.fit(
        bundle.train_requests, world.catalog, world.population, bundle.histories
    )
    train_all = time.perf_counter() - start

    inference = bench_histogram("test_batch", model=label, dataset=dataset)
    batch = build_batch(
        bundle.test_requests[:64], world.catalog, world.population, bundle.histories
    )
    for _ in range(5):
        with bench_timer("test_batch", model=label, dataset=dataset):
            model.score_batch(batch)
    return {
        "train-all (s)": train_all,
        "train-b (ms)": (batches.sum - total) / (batches.count - count),
        "test-b (ms)": inference.mean,
    }


def _run() -> str:
    blocks = []
    for dataset in ("taobao", "movielens", "appstore"):
        config = experiment_config(dataset)
        bundle = prepare_bundle(config)
        world = bundle.world
        rapid_config = RapidConfig(
            user_dim=world.population.feature_dim,
            item_dim=world.catalog.feature_dim,
            num_topics=world.catalog.num_topics,
            hidden=config.hidden,
        )
        table = {
            "prm": _measure(
                lambda: PRMReranker(
                    hidden=config.hidden, epochs=config.train.epochs
                ),
                bundle,
                "prm",
            ),
            "desa": _measure(
                lambda: DESAReranker(
                    hidden=config.hidden, epochs=config.train.epochs
                ),
                bundle,
                "desa",
            ),
            "rapid": _measure(
                lambda: RapidReranker(
                    rapid_config, "rapid-pro", train_config=config.train
                ),
                bundle,
                "rapid",
            ),
        }
        blocks.append(
            format_table(
                table,
                columns=["train-all (s)", "train-b (ms)", "test-b (ms)"],
                title=f"Table VI (efficiency, {dataset})",
                precision=2,
            )
        )
    return "\n\n".join(blocks)


def test_table6_efficiency(benchmark):
    text = benchmark.pedantic(_run, rounds=1, iterations=1)
    publish("table6_efficiency", text)
    assert "rapid" in text
