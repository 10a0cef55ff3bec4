"""Regression: served scores always reflect the current weights.

Serving casts parameters to float32 per call, so a model whose
``param.data`` was updated in place — including one swapped out and back
in mid-flight — must serve its new weights with no invalidation step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RapidConfig, RapidReranker, TrainConfig
from repro.data import RankingRequest, build_batch
from repro.nn import inference
from repro.resilience.degrade import ResilientReranker
from repro.serve import ManualClock, RerankService, ServeRequest, ServingTenant

pytestmark = pytest.mark.serve


def _rapid(world, seed: int = 0) -> RapidReranker:
    config = RapidConfig(
        user_dim=world.population.feature_dim,
        item_dim=world.catalog.feature_dim,
        num_topics=world.catalog.num_topics,
        hidden=4,
        seed=seed,
    )
    return RapidReranker(config, train_config=TrainConfig(epochs=1, batch_size=8))


def _batch(world, histories, count: int = 6, seed: int = 0):
    rng = np.random.default_rng(seed)
    requests = []
    for _ in range(count):
        items = rng.choice(world.config.num_items, size=8, replace=False)
        requests.append(
            RankingRequest(
                int(rng.integers(world.config.num_users)),
                items,
                rng.normal(size=8),
            )
        )
    return build_batch(requests, world.catalog, world.population, histories)


def _mutate_in_place(rapid: RapidReranker) -> None:
    """Flip every weight's sign without rebinding any array."""
    for param in rapid.model.parameters():
        param.data *= -1.0


def test_in_place_mutation_is_served_without_invalidation(taobao_world):
    """Flipping ``param.data`` in place changes the very next served scores."""
    world = taobao_world
    histories = world.sample_histories()
    rapid = _rapid(world)
    batch = _batch(world, histories)
    before = rapid.score_batch(batch)
    _mutate_in_place(rapid)
    served = rapid.score_batch(batch)
    with inference.use_infer(False):
        reference = rapid.score_batch(batch)
    assert not np.allclose(reference, before), "mutation had no effect at all"
    np.testing.assert_allclose(served, reference, rtol=0, atol=1e-5)


def test_swap_primary_invalidates_incoming_model(taobao_world):
    """Swapping in a model mutated in place must serve its NEW weights."""
    world = taobao_world
    histories = world.sample_histories()
    rapid = _rapid(world)
    standby = _rapid(world, seed=1)
    batch = _batch(world, histories)
    wrapped = ResilientReranker(rapid, fallbacks=[], deadline_ms=None)
    with inference.use_infer(True):
        wrapped.rerank(batch)  # build rapid's weight-cast caches
        wrapped.swap_primary(standby)
        assert wrapped.name == "resilient-rapid-pro"
        # While offline, the original model's weights are updated IN PLACE
        # (the exact shape of a hot-reload that reuses buffers).
        _mutate_in_place(rapid)
        wrapped.swap_primary(rapid)
        served = wrapped.score_batch(batch)
        oracle = rapid.score_batch(batch)
    np.testing.assert_array_equal(served, oracle)


def test_swap_primary_invalidates_outgoing_model(taobao_world):
    """The outgoing primary holds nothing stale: updated in place after
    being swapped out, it serves its new weights when used again."""
    world = taobao_world
    histories = world.sample_histories()
    rapid = _rapid(world)
    batch = _batch(world, histories)
    wrapped = ResilientReranker(rapid, fallbacks=[], deadline_ms=None)
    before = wrapped.score_batch(batch)
    assert wrapped.swap_primary(_rapid(world, seed=2)) is rapid
    _mutate_in_place(rapid)
    served = rapid.score_batch(batch)
    with inference.use_infer(False):
        reference = rapid.score_batch(batch)
    assert not np.allclose(served, before)
    np.testing.assert_allclose(served, reference, rtol=0, atol=1e-5)


def test_service_swap_model_serves_fresh_weights(taobao_world):
    """End to end through the service: swap + in-place mutation + cache."""
    import asyncio

    world = taobao_world
    histories = world.sample_histories()
    rapid = _rapid(world)
    wrapped = ResilientReranker(rapid, fallbacks=[], deadline_ms=None)
    clock = ManualClock()
    tenant = ServingTenant(wrapped, world.catalog, world.population, list(histories))
    from repro.serve import SlateCache

    service = RerankService(tenant, cache=SlateCache(clock=clock), clock=clock)
    rng = np.random.default_rng(51)
    items = rng.choice(world.config.num_items, size=8, replace=False)
    request = ServeRequest(
        int(rng.integers(world.config.num_users)), items, rng.normal(size=8)
    )

    async def scenario():
        before, _ = await asyncio.gather(service.rerank(request), service.drain())
        _mutate_in_place(rapid)
        service.swap_model(rapid)  # same wrapper, same (mutated) model
        after, _ = await asyncio.gather(service.rerank(request), service.drain())
        return before, after

    with inference.use_infer(True):
        before, after = asyncio.run(scenario())
        assert after.source == "batched"  # slate cache cleared by the swap
        single = build_batch(
            [RankingRequest(request.user_id, request.items, request.initial_scores)],
            world.catalog,
            world.population,
            histories,
        )
        oracle = wrapped.rerank(single)[0]
    np.testing.assert_array_equal(after.permutation, oracle)
