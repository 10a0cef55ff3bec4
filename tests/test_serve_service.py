"""Serving-tier tests: the asyncio service end to end, deterministically.

Everything runs on a :class:`~repro.serve.clock.ManualClock` driven
loopback asyncio loop — no dispatcher task, no timers, no sleeps — per
the serving test contract in TESTING.md.  The headline guarantees:

- every served slate is **bitwise-identical** to calling the tenant's
  ``Reranker.rerank`` directly on that request alone;
- N concurrent tasks hammering overlapping users produce the same slate
  multiset as serial execution;
- a 500-request seeded chaos sweep through the service returns 100%
  valid slates with every breaker/fallback accounted for.
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.core import RapidConfig, RapidReranker, TrainConfig
from repro.data import RankingRequest, build_batch
from repro.obs import get_registry, metrics
from repro.obs.slo import serving_slo
from repro.rerank import MMRReranker
from repro.resilience import FaultSpec, chaos
from repro.resilience.degrade import ResilientReranker, default_fallback_chain
from repro.serve import (
    ManualClock,
    RerankService,
    ServeRequest,
    ServiceOverloaded,
    ServingTenant,
    SlateCache,
    ZipfianWorkload,
)

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


def _requests(world, count: int, list_length: int = 8, seed: int = 0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        items = rng.choice(world.config.num_items, size=list_length, replace=False)
        out.append(
            ServeRequest(
                int(rng.integers(world.config.num_users)),
                items,
                rng.normal(size=list_length),
            )
        )
    return out


def _service(world, histories, reranker, clock, **kwargs):
    tenant = ServingTenant(
        reranker, world.catalog, world.population, list(histories)
    )
    kwargs.setdefault("cache", SlateCache(clock=clock))
    return RerankService(tenant, clock=clock, **kwargs)


def _direct_slate(world, histories, reranker, request: ServeRequest):
    """The oracle: rerank this request alone, no batching, no cache."""
    batch = build_batch(
        [RankingRequest(request.user_id, request.items, request.initial_scores)],
        world.catalog,
        world.population,
        histories,
    )
    return reranker.rerank(batch)[0]


async def _serve_all(service, requests):
    tasks = [asyncio.create_task(service.rerank(r)) for r in requests]
    while not all(t.done() for t in tasks):
        await service.drain()
    return await asyncio.gather(*tasks)


def _run(coro):
    return asyncio.run(coro)


class TestServedVsDirect:
    @pytest.mark.parametrize("model", ["mmr", "rapid"])
    def test_served_slates_bitwise_equal_direct(self, taobao_world, model):
        world = taobao_world
        histories = world.sample_histories()
        reranker = MMRReranker() if model == "mmr" else _rapid(world)
        clock = ManualClock()
        service = _service(
            world, histories, reranker, clock, max_batch_size=8, cache=None
        )
        requests = _requests(world, 13, seed=3)

        results = _run(_serve_all(service, requests))
        batch_sizes = {r.batch_size for r in results}
        assert max(batch_sizes) > 1, "no coalescing happened"
        for request, result in zip(requests, results):
            direct = _direct_slate(world, histories, reranker, request)
            np.testing.assert_array_equal(result.permutation, direct)
            np.testing.assert_array_equal(
                result.ranked_items, request.items[direct]
            )

    def test_mixed_lengths_group_separately(self, taobao_world):
        """Unequal-length requests never share a forward batch (padding
        would change the rows relative to serving each alone)."""
        world = taobao_world
        histories = world.sample_histories()
        clock = ManualClock()
        service = _service(
            world, histories, MMRReranker(), clock, max_batch_size=16, cache=None
        )
        short = _requests(world, 3, list_length=6, seed=0)
        long = _requests(world, 3, list_length=9, seed=1)
        results = _run(_serve_all(service, short + long))
        assert [r.batch_size for r in results] == [3, 3, 3, 3, 3, 3]
        for request, result in zip(short + long, results):
            assert result.permutation.size == request.list_length


class TestCacheIntegration:
    def test_repeat_request_hits_cache_with_same_slate(self, taobao_world):
        world = taobao_world
        histories = world.sample_histories()
        clock = ManualClock()
        service = _service(world, histories, MMRReranker(), clock)
        [request] = _requests(world, 1, seed=5)

        async def scenario():
            first, _ = await asyncio.gather(
                service.rerank(request), service.drain()
            )
            second = await service.rerank(request)
            return first, second

        first, second = _run(scenario())
        assert first.source == "batched" and second.source == "cache"
        np.testing.assert_array_equal(first.permutation, second.permutation)

    def test_repeat_cache_hit_normalises_no_labels(self, taobao_world, monkeypatch):
        """Every metric a cache hit records is answered by the registry's
        lookup table: the second hit on a request sorts no label set."""
        world = taobao_world
        histories = world.sample_histories()
        clock = ManualClock()
        service = _service(
            world,
            histories,
            MMRReranker(),
            clock,
            slo_monitor=serving_slo(clock=clock),
        )
        [request] = _requests(world, 1, seed=5)
        calls = []
        normalize = metrics._normalize_labels

        def spy(labels):
            calls.append(dict(labels))
            return normalize(labels)

        async def scenario():
            await asyncio.gather(service.rerank(request), service.drain())
            monkeypatch.setattr(metrics, "_normalize_labels", spy)
            first = await service.rerank(request)
            calls.clear()
            second = await service.rerank(request)
            return first, second

        first, second = _run(scenario())
        assert first.source == "cache" and second.source == "cache"
        assert calls == []

    def test_history_update_invalidates_and_reserves_fresh(self, taobao_world):
        """Invalidation-on-history-update never serves a stale slate."""
        world = taobao_world
        histories = world.sample_histories()
        rapid = _rapid(world)
        clock = ManualClock()
        service = _service(world, histories, rapid, clock)
        [request] = _requests(world, 1, seed=7)

        async def scenario():
            before, _ = await asyncio.gather(
                service.rerank(request), service.drain()
            )
            # New feedback arrives for this user: drop their slates.
            service.update_history(
                request.user_id, world.config.num_items - 1 - np.arange(6)
            )
            after, _ = await asyncio.gather(
                service.rerank(request), service.drain()
            )
            return before, after

        before, after = _run(scenario())
        assert after.source == "batched", "stale slate served from cache"
        tenant = service.tenants["default"]
        np.testing.assert_array_equal(
            after.permutation,
            _direct_slate(world, tenant.histories, rapid, request),
        )

    def test_history_update_invalidates_every_aliased_identity(self, taobao_world):
        """Virtual users aliasing one feature user all miss after its update."""
        world = taobao_world
        histories = world.sample_histories()
        clock = ManualClock()
        service = _service(world, histories, _rapid(world), clock)
        [base] = _requests(world, 1, seed=11)
        aliases = [
            ServeRequest(
                base.user_id, base.items, base.initial_scores, cache_user=identity
            )
            for identity in (10_001, 10_002)
        ]

        async def serve_aliases():
            results = await asyncio.gather(
                *(service.rerank(r) for r in aliases), service.drain()
            )
            return [r.source for r in results[:-1]]

        async def scenario():
            first = await serve_aliases()
            second = [(await service.rerank(r)).source for r in aliases]
            service.update_history(
                base.user_id, world.config.num_items - 1 - np.arange(6)
            )
            third = await serve_aliases()
            return first, second, third

        first, second, third = _run(scenario())
        assert first == ["batched", "batched"]
        assert second == ["cache", "cache"]
        assert third == ["batched", "batched"], "aliased identity kept a stale slate"

    def test_fallback_slate_is_served_but_not_cached(self, taobao_world):
        """A degraded answer is never replayed as a cache hit."""
        world = taobao_world
        histories = world.sample_histories()
        rapid = _rapid(world)
        # No fallbacks besides the built-in initial-order passthrough.
        resilient = ResilientReranker(rapid, fallbacks=[], deadline_ms=None)
        clock = ManualClock()
        service = _service(world, histories, resilient, clock)
        [request] = _requests(world, 1, seed=13)
        primary_slate = _direct_slate(world, histories, rapid, request)
        passthrough = np.arange(request.list_length)
        assert not np.array_equal(primary_slate, passthrough)

        async def scenario():
            with chaos(FaultSpec("rerank.score.rapid-pro", kind="error", times=1)):
                degraded, _ = await asyncio.gather(
                    service.rerank(request), service.drain()
                )
            again, _ = await asyncio.gather(service.rerank(request), service.drain())
            hit = await service.rerank(request)
            return degraded, again, hit

        degraded, again, hit = _run(scenario())
        np.testing.assert_array_equal(degraded.permutation, passthrough)
        assert again.source == "batched", "fallback slate was served from cache"
        np.testing.assert_array_equal(again.permutation, primary_slate)
        assert hit.source == "cache"
        np.testing.assert_array_equal(hit.permutation, primary_slate)

    def test_ttl_expiry_forces_recompute(self, taobao_world):
        world = taobao_world
        histories = world.sample_histories()
        clock = ManualClock()
        service = _service(
            world,
            histories,
            MMRReranker(),
            clock,
            cache=SlateCache(clock=clock, ttl_s=10.0),
        )
        [request] = _requests(world, 1, seed=9)

        async def scenario():
            first, _ = await asyncio.gather(
                service.rerank(request), service.drain()
            )
            clock.advance(11.0)
            second, _ = await asyncio.gather(
                service.rerank(request), service.drain()
            )
            return first, second

        first, second = _run(scenario())
        assert (first.source, second.source) == ("batched", "batched")
        np.testing.assert_array_equal(first.permutation, second.permutation)


class TestAdmissionControl:
    def test_reject_policy_raises_overloaded(self, taobao_world):
        world = taobao_world
        histories = world.sample_histories()
        clock = ManualClock()
        service = _service(
            world,
            histories,
            MMRReranker(),
            clock,
            max_batch_size=100,
            max_pending=2,
            cache=None,
        )
        requests = _requests(world, 4, seed=11)

        async def scenario():
            get_registry().reset()
            tasks = [asyncio.create_task(service.rerank(r)) for r in requests]
            await asyncio.sleep(0)  # all four submit before any drain
            await service.drain()
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = _run(scenario())
        shed = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
        served = [o for o in outcomes if not isinstance(o, Exception)]
        assert len(shed) == 2 and len(served) == 2
        assert (
            get_registry()
            .counter("serve.requests", tenant="default", source="shed")
            .value
            == 2
        )


class TestConcurrencyRace:
    def test_concurrent_equals_serial_slate_multiset(self, taobao_world):
        """N tasks with overlapping users == serial execution, as multisets."""
        world = taobao_world
        histories = world.sample_histories()
        rapid = _rapid(world)
        rng = np.random.default_rng(17)
        base = _requests(world, 10, seed=17)
        # Overlap: duplicate several requests verbatim and shuffle arrival.
        requests = base + [base[i] for i in rng.integers(0, 10, size=6)]
        order = rng.permutation(len(requests))

        serial = [
            tuple(_direct_slate(world, histories, rapid, r)) for r in requests
        ]

        clock = ManualClock()
        service = _service(
            world, histories, rapid, clock, max_batch_size=5
        )
        results = _run(_serve_all(service, [requests[i] for i in order]))
        concurrent = [tuple(r.permutation) for r in results]

        assert sorted(serial) == sorted(concurrent)
        assert {r.source for r in results} <= {"batched", "cache"}

    def test_virtual_loadgen_replays_bitwise(self, taobao_world):
        """A manual-clock closed loop over Zipfian traffic replays exactly.

        Eight clients keep a request in flight each; the loop advances the
        clock to the batcher's next window deadline and serves what is
        due, so batches close on size or on window, never on a drain.
        """
        world = taobao_world
        histories = world.sample_histories()

        def one_run(num_requests=150, clients=8):
            get_registry().reset()
            clock = ManualClock()
            service = _service(
                world,
                histories,
                MMRReranker(),
                clock,
                max_batch_size=4,
                max_wait_ms=2.0,
            )
            workload = ZipfianWorkload(
                world.catalog,
                world.population,
                num_virtual_users=100_000,
                list_length=8,
                seed=23,
            )

            async def closed_loop():
                served = []
                issued = 0
                inflight: list = []  # (task, request) in issue order
                while issued < num_requests or inflight:
                    while issued < num_requests and len(inflight) < clients:
                        request = workload.request()
                        task = asyncio.create_task(service.rerank(request))
                        inflight.append((task, request))
                        issued += 1
                    # One tick to enter rerank(), one for cache hits to return.
                    await asyncio.sleep(0)
                    await asyncio.sleep(0)
                    deadline = service.batcher.next_deadline()
                    if deadline is not None:
                        clock.advance_to(deadline)
                        service.serve_due()
                        await asyncio.sleep(0)
                    done = [pair for pair in inflight if pair[0].done()]
                    inflight = [pair for pair in inflight if not pair[0].done()]
                    for task, request in done:
                        result = task.result()
                        served.append(
                            (
                                request.cache_user,
                                result.source,
                                result.batch_size,
                                result.latency_ms,
                                tuple(result.ranked_items),
                            )
                        )
                return served, clock.now

            return _run(closed_loop())

        (first, first_end), (second, second_end) = one_run(), one_run()
        assert first == second and first_end == second_end
        assert len(first) == 150
        sources = [source for _, source, _, _, _ in first]
        assert set(sources) == {"batched", "cache"}
        assert sources.count("cache") > 0.05 * len(sources)  # Zipf head repeats
        # Window-driven release: some batches closed below max_batch_size.
        sizes = {size for _, source, size, _, _ in first if source == "batched"}
        assert sizes & {1, 2, 3}


class TestChaosSweep:
    def test_500_request_sweep_all_valid_with_accounting(self, taobao_world):
        """Chaos through the *service*: valid slates + fallback accounting."""
        world = taobao_world
        histories = world.sample_histories()
        rapid = _rapid(world)
        resilient = ResilientReranker(
            rapid,
            fallbacks=default_fallback_chain(tradeoff=0.8),
            deadline_ms=None,
        )
        clock = ManualClock()
        service = _service(
            world, histories, resilient, clock, max_batch_size=8, cache=None
        )
        requests = _requests(world, 500, seed=29)
        get_registry().reset()

        with chaos(
            FaultSpec(
                "rerank.score.rapid-pro",
                kind="error",
                probability=0.25,
                times=None,
            ),
            seed=31,
        ) as plan:
            results = _run(_serve_all(service, requests))

        length = requests[0].list_length
        assert len(results) == 500
        for result in results:
            assert result.permutation.shape == (length,)
            assert (np.sort(result.permutation) == np.arange(length)).all()

        # Accounting: every injected fault became exactly one MMR fallback.
        assert plan.fires() > 0
        fallback = get_registry().counter(
            "resilience.fallbacks",
            reranker=resilient.name,
            to="mmr",
            reason="InjectedFault",
        )
        assert fallback.value == plan.fires()
        served = get_registry().counter(
            "serve.requests", tenant="default", source="batched"
        )
        assert served.value == 500


class TestControlPlane:
    def test_swap_model_clears_tenant_cache(self, taobao_world):
        world = taobao_world
        histories = world.sample_histories()
        clock = ManualClock()
        service = _service(world, histories, MMRReranker(tradeoff=0.8), clock)
        [request] = _requests(world, 1, seed=37)

        async def scenario():
            first, _ = await asyncio.gather(
                service.rerank(request), service.drain()
            )
            old = service.swap_model(MMRReranker(tradeoff=0.0))
            second, _ = await asyncio.gather(
                service.rerank(request), service.drain()
            )
            return first, old, second

        first, old, second = _run(scenario())
        assert old.tradeoff == 0.8
        assert second.source == "batched", "cache survived a model swap"
        tenant = service.tenants["default"]
        np.testing.assert_array_equal(
            second.permutation,
            _direct_slate(world, tenant.histories, tenant.reranker, request),
        )

    def test_unknown_tenant_rejected(self, taobao_world):
        world = taobao_world
        histories = world.sample_histories()
        clock = ManualClock()
        service = _service(world, histories, MMRReranker(), clock)
        [request] = _requests(world, 1)
        request.tenant = "nope"
        with pytest.raises(KeyError):
            _run(service.rerank(request))

    def test_multi_tenant_routing_and_isolation(self, taobao_world):
        world = taobao_world
        histories = world.sample_histories()
        clock = ManualClock()
        tenants = {
            "sharp": ServingTenant(
                MMRReranker(tradeoff=1.0),
                world.catalog,
                world.population,
                list(histories),
                name="sharp",
            ),
            "diverse": ServingTenant(
                MMRReranker(tradeoff=0.0),
                world.catalog,
                world.population,
                list(histories),
                name="diverse",
            ),
        }
        service = RerankService(
            tenants, cache=SlateCache(clock=clock), clock=clock
        )
        [base] = _requests(world, 1, seed=41)
        sharp = ServeRequest(
            base.user_id, base.items, base.initial_scores, tenant="sharp"
        )
        diverse = ServeRequest(
            base.user_id, base.items, base.initial_scores, tenant="diverse"
        )

        async def scenario():
            results, _ = await asyncio.gather(
                asyncio.gather(service.rerank(sharp), service.rerank(diverse)),
                service.drain(),
            )
            return results

        result_sharp, result_diverse = _run(scenario())
        for tenant_name, result in (
            ("sharp", result_sharp),
            ("diverse", result_diverse),
        ):
            tenant = service.tenants[tenant_name]
            np.testing.assert_array_equal(
                result.permutation,
                _direct_slate(
                    world,
                    tenant.histories,
                    tenant.reranker,
                    ServeRequest(base.user_id, base.items, base.initial_scores),
                ),
            )
        # tradeoff=1.0 vs 0.0 rank differently on this world
        assert not np.array_equal(
            result_sharp.permutation, result_diverse.permutation
        )


class TestSLOIntegration:
    def test_shed_storm_pages_the_slo(self, taobao_world):
        world = taobao_world
        histories = world.sample_histories()
        clock = ManualClock()
        monitor = serving_slo(min_events=1, clock=clock)
        service = _service(
            world,
            histories,
            MMRReranker(),
            clock,
            max_batch_size=100,
            max_pending=1,
            slo_monitor=monitor,
            cache=None,
        )
        requests = _requests(world, 12, seed=43)

        async def scenario():
            tasks = [asyncio.create_task(service.rerank(r)) for r in requests]
            await asyncio.sleep(0)
            await service.drain()
            return await asyncio.gather(*tasks, return_exceptions=True)

        outcomes = _run(scenario())
        shed = [o for o in outcomes if isinstance(o, ServiceOverloaded)]
        assert len(shed) == 11
        # 11 of 12 requests shed: burn rate is far beyond the page rule.
        assert monitor.state == "page"


class TestDispatcherMode:
    def test_background_dispatcher_serves_without_manual_drain(
        self, taobao_world
    ):
        """Production mode: start() serves full batches with no drain calls.

        Uses a full-size batch so release is submission-triggered (the
        wake event), not timer-triggered — still no wall-clock waiting.
        """
        world = taobao_world
        histories = world.sample_histories()
        service = _service(
            world,
            histories,
            MMRReranker(),
            ManualClock(),
            max_batch_size=4,
            max_wait_ms=10_000.0,
            cache=None,
        )
        requests = _requests(world, 8, seed=47)

        async def scenario():
            await service.start()
            try:
                results = await asyncio.gather(
                    *(service.rerank(r) for r in requests)
                )
            finally:
                await service.stop()
            return results

        results = _run(scenario())
        assert [r.batch_size for r in results] == [4] * 8
        for request, result in zip(requests, results):
            assert (np.sort(result.permutation) == np.arange(8)).all()
