"""Every signal the stack records lands in the registry under one metric type.

Drives the instrumented paths end to end on the tiny taobao world — a
served miss and a cache hit through a :class:`ResilientReranker` with the
default serving SLO, one ``train_rapid`` epoch, one ``evaluate_reranker``
pass — and checks the registry holds no twin series: each name appears
under exactly one kind (counter, gauge or histogram, the registry's only
three), and each histogram carries its own window view.
"""

from __future__ import annotations

import asyncio

import numpy as np

from repro.core import RapidConfig, RapidReranker, TrainConfig
from repro.core.trainer import train_rapid
from repro.eval import evaluate_reranker
from repro.obs import MetricsRegistry, get_registry, reset_registry
from repro.obs.slo import serving_slo
from repro.obs.windows import enable_windowed
from repro.resilience.degrade import ResilientReranker
from repro.serve import (
    ManualClock,
    RerankService,
    ServeRequest,
    ServingTenant,
    SlateCache,
)

WINDOW_FIELDS = (
    "window_s",
    "window_count",
    "window_sum",
    "window_p50",
    "window_p95",
    "window_p99",
)


def _drive_everything(bundle) -> None:
    world = bundle.world
    rapid = RapidReranker(
        RapidConfig(
            user_dim=world.population.feature_dim,
            item_dim=world.catalog.feature_dim,
            num_topics=world.catalog.num_topics,
            hidden=4,
            seed=0,
        )
    )
    train_rapid(
        rapid.model,
        bundle.train_requests[:32],
        world.catalog,
        world.population,
        bundle.histories,
        config=TrainConfig(epochs=1, batch_size=16),
    )
    serving = ResilientReranker(rapid, slo_monitor=serving_slo())
    clock = ManualClock()
    service = RerankService(
        ServingTenant(serving, world.catalog, world.population, bundle.histories),
        clock=clock,
        cache=SlateCache(clock=clock),
    )
    first = bundle.test_requests[0]
    request = ServeRequest(first.user_id, first.items, first.initial_scores)

    async def miss_then_hit():
        miss, _ = await asyncio.gather(service.rerank(request), service.drain())
        hit = await service.rerank(request)
        return miss, hit

    miss, hit = asyncio.run(miss_then_hit())
    assert (miss.source, hit.source) == ("batched", "cache")
    np.testing.assert_array_equal(miss.permutation, hit.permutation)
    evaluate_reranker(serving, bundle)


def test_registry_creates_only_three_kinds():
    """Counter, gauge and histogram are the registry's only constructors."""
    constructors = {
        name
        for name, attr in vars(MetricsRegistry).items()
        if callable(attr) and not name.startswith("_")
    } - {"collect", "reset"}
    assert constructors == {"counter", "gauge", "histogram"}


def test_each_signal_has_one_metric_type(tiny_bundle):
    reset_registry()
    enable_windowed()  # the retired switch must not bring twins back
    try:
        _drive_everything(tiny_bundle)
        snaps = get_registry().collect()
    finally:
        reset_registry()

    kinds: dict[str, set[str]] = {}
    for snap in snaps:
        kinds.setdefault(snap["name"], set()).add(snap["kind"])
    assert {name: k for name, k in kinds.items() if len(k) != 1} == {}
    all_kinds = set().union(*kinds.values())
    assert all_kinds == {"counter", "gauge", "histogram"}

    histograms = [s for s in snaps if s["kind"] == "histogram"]
    for snap in histograms:
        missing = [f for f in WINDOW_FIELDS if f not in snap]
        assert missing == [], (snap["name"], missing)

    by_name = {s["name"] for s in histograms}
    assert {
        "serve.request_ms",
        "serve.batch_size",
        "rerank.latency_ms",
        "resilience.request_ms",
        "train.batch_ms",
        "eval.rerank_batch_ms",
    } <= by_name
    counters = {s["name"] for s in snaps if s["kind"] == "counter"}
    assert {"train.lists", "eval.lists"} <= counters
    # Request rates are read off the histograms' windows.
    [served] = [s for s in histograms if s["name"] == "serve.request_ms"]
    assert served["window_count"] == served["count"] == 2
    assert served["window_count"] / served["window_s"] > 0.0
