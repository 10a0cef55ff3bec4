"""The asyncio rerank service: admission → cache → batcher → model → obs.

One :class:`RerankService` fronts any number of *tenants* — independent
(model, catalog, population, histories) worlds sharing the process, the
batcher, and the cache (cache keys are tenant-qualified).  A request
travels:

1. **admission control** — the batcher's bounded queue; beyond
   ``max_pending`` the request is shed: it raises
   :class:`ServiceOverloaded` (the client retries elsewhere), is counted
   as ``serve.requests{source="shed"}`` and, with an SLO monitor, as a
   bad event;
2. **slate cache** — an exact-identity hit (user, candidates, scores,
   tenant) skips the model entirely.  Only slates the tenant's primary
   model produced are cached: a fallback answer from a
   :class:`~repro.resilience.degrade.ResilientReranker` is served once
   and recomputed on the next request;
3. **batcher** — requests coalesce by ``(tenant, list_length)`` until
   the group is full or its window expires (:mod:`repro.serve.batcher`);
4. **batched rerank** — one ``build_batch`` + one ``Reranker.rerank``
   per group.  Wrap the tenant's model in a
   :class:`~repro.resilience.degrade.ResilientReranker` to get
   deadlines, circuit breaking, and RAPID→MMR→passthrough fallback under
   the service;
5. **observability** — the ``serve.request_ms`` histogram (lifetime and
   windowed p50/p95/p99; its window count over its window length is the
   request rate), ``serve.requests{source=}``, the batcher's batch-size
   histogram, cache hit counters, and an optional
   :class:`~repro.obs.slo.SLOMonitor` fed every request outcome.

Determinism contract: the clock is injectable and the service only acts
when driven — ``await service.drain()`` (tests, manual-clock closed
loops) or the background dispatcher started by ``start()``
(production, the only place a real timer exists).  Given the same
arrival order and clock schedule, batch compositions and served slates
replay exactly.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable, Mapping

import numpy as np

from ..data.batching import RerankBatch, build_batch
from ..data.schema import Catalog, Population, RankingRequest
from ..obs import get_registry
from ..rerank.base import Reranker
from ..resilience.degrade import ResilientReranker
from .batcher import BatcherCore, QueueFullError
from .cache import SlateCache

__all__ = [
    "ServeRequest",
    "ServeResult",
    "ServingTenant",
    "ServiceOverloaded",
    "RerankService",
]


class ServiceOverloaded(RuntimeError):
    """Admission control shed this request (the batcher queue is full)."""


@dataclass
class ServeRequest:
    """One user's rerank request as it arrives at the service edge.

    ``cache_user`` is the *identity* used for slate caching; it defaults
    to ``user_id`` but Zipfian workloads map millions of virtual users onto
    a finite feature population while keeping distinct cache identities.
    A history update for ``user_id`` invalidates every identity aliasing
    it.
    """

    user_id: int
    items: np.ndarray
    initial_scores: np.ndarray
    tenant: str = "default"
    cache_user: int | None = None

    def __post_init__(self) -> None:
        self.items = np.asarray(self.items, dtype=np.int64)
        self.initial_scores = np.asarray(self.initial_scores, dtype=np.float64)
        if self.cache_user is None:
            self.cache_user = int(self.user_id)

    @property
    def list_length(self) -> int:
        return int(self.items.size)


@dataclass
class ServeResult:
    """The served slate plus how it was produced."""

    permutation: np.ndarray  # (L,) best-first indices into the request
    ranked_items: np.ndarray  # (L,) item ids in served order
    source: str  # "batched" | "cache"
    batch_size: int  # forward-pass batch (1 for cache)
    latency_ms: float
    seq: int  # batcher sequence number (-1 for cache)


@dataclass
class ServingTenant:
    """One tenant's model and world: everything a forward pass needs."""

    reranker: Reranker
    catalog: Catalog
    population: Population
    histories: list
    topic_history_length: int = 5
    flat_history_length: int = 20
    name: str = field(default="default")

    def build(self, requests: "list[ServeRequest]") -> RerankBatch:
        return build_batch(
            [
                RankingRequest(r.user_id, r.items, r.initial_scores)
                for r in requests
            ],
            self.catalog,
            self.population,
            self.histories,
            topic_history_length=self.topic_history_length,
            flat_history_length=self.flat_history_length,
        )


@dataclass
class _Pending:
    request: ServeRequest
    future: asyncio.Future
    submitted_at: float


class RerankService:
    """Batched multi-tenant rerank serving (see module docstring).

    Parameters
    ----------
    tenants:
        A single :class:`ServingTenant` or a name → tenant mapping.
    cache:
        A :class:`SlateCache`, or ``None`` to disable caching.
    max_batch_size / max_wait_ms / max_pending:
        Coalescing and admission parameters (:class:`BatcherCore`).
    clock:
        Monotonic-seconds callable shared by latency accounting and the
        batcher; inject a :class:`~repro.serve.clock.ManualClock` in
        tests.
    slo_monitor:
        Optional :class:`~repro.obs.slo.SLOMonitor`; each request records
        (latency, shed-or-failed) and burn rates re-evaluate per request.
    """

    def __init__(
        self,
        tenants: "ServingTenant | Mapping[str, ServingTenant]",
        cache: SlateCache | None = None,
        max_batch_size: int = 16,
        max_wait_ms: float = 2.0,
        max_pending: int = 1024,
        clock: Callable[[], float] = time.monotonic,
        slo_monitor=None,
    ) -> None:
        if isinstance(tenants, ServingTenant):
            tenants = {tenants.name: tenants}
        if not tenants:
            raise ValueError("at least one tenant is required")
        self.tenants = dict(tenants)
        self.cache = cache
        self._clock = clock
        self.slo_monitor = slo_monitor
        self.batcher = BatcherCore(
            max_batch_size=max_batch_size,
            max_wait_ms=max_wait_ms,
            max_pending=max_pending,
            clock=clock,
        )
        self._wake: asyncio.Event | None = None
        self._dispatcher: asyncio.Task | None = None

    # ------------------------------------------------------------------
    # Request path
    # ------------------------------------------------------------------
    async def rerank(self, request: ServeRequest) -> ServeResult:
        """Serve one request: a valid slate, or :class:`ServiceOverloaded`."""
        start = self._clock()
        tenant = self.tenants.get(request.tenant)
        if tenant is None:
            raise KeyError(f"unknown tenant {request.tenant!r}")
        if self.cache is not None:
            slate = self.cache.get(
                request.user_id,
                request.items,
                request.initial_scores,
                tenant=request.tenant,
                identity=request.cache_user,
            )
            if slate is not None:
                return self._finish(request, slate, "cache", 1, -1, start)
        try:
            loop = asyncio.get_running_loop()
            future: asyncio.Future = loop.create_future()
            seq = self.batcher.submit(
                (request.tenant, request.list_length),
                _Pending(request, future, start),
            )
        except QueueFullError as error:
            get_registry().counter(
                "serve.requests", tenant=request.tenant, source="shed"
            ).inc()
            if self.slo_monitor is not None:
                self.slo_monitor.record(error=True)
                self.slo_monitor.evaluate()
            raise ServiceOverloaded(str(error)) from error
        if self._wake is not None:
            self._wake.set()
        permutation, batch_size, degraded = await future
        if self.cache is not None and not degraded:
            self.cache.put(
                request.user_id,
                request.items,
                request.initial_scores,
                permutation,
                tenant=request.tenant,
                identity=request.cache_user,
            )
        return self._finish(request, permutation, "batched", batch_size, seq, start)

    def _finish(
        self,
        request: ServeRequest,
        permutation: np.ndarray,
        source: str,
        batch_size: int,
        seq: int,
        start: float,
    ) -> ServeResult:
        latency_ms = 1000.0 * (self._clock() - start)
        get_registry().counter(
            "serve.requests", tenant=request.tenant, source=source
        ).inc()
        get_registry().histogram(
            "serve.request_ms", tenant=request.tenant
        ).observe(latency_ms)
        if self.slo_monitor is not None:
            self.slo_monitor.record(latency_ms=latency_ms, error=False)
            self.slo_monitor.evaluate()
        return ServeResult(
            permutation=permutation,
            ranked_items=request.items[permutation],
            source=source,
            batch_size=batch_size,
            latency_ms=latency_ms,
            seq=seq,
        )

    # ------------------------------------------------------------------
    # Batched execution
    # ------------------------------------------------------------------
    def serve_due(self) -> int:
        """Run the forward pass for every due group; returns rows served."""
        return self._serve(self.batcher.due())

    async def drain(self) -> int:
        """Flush everything pending regardless of the clock (tests/shutdown).

        Yields to the loop first so ``rerank`` coroutines created in the
        same tick get to submit before the flush.
        """
        await asyncio.sleep(0)
        return self._serve(self.batcher.flush())

    def _serve(self, batches) -> int:
        served = 0
        for batch in batches:
            tenant = self.tenants[batch.key[0]]
            pendings: "list[_Pending]" = batch.payloads
            try:
                rerank_batch = tenant.build([p.request for p in pendings])
                permutations = tenant.reranker.rerank(rerank_batch)
                degraded = getattr(tenant.reranker, "last_degraded", False)
            except Exception as error:  # noqa: BLE001 - fail the waiters, not the loop
                for pending in pendings:
                    if not pending.future.done():
                        pending.future.set_exception(error)
                continue
            for row, pending in enumerate(pendings):
                if not pending.future.done():
                    pending.future.set_result(
                        (permutations[row], batch.size, degraded)
                    )
            served += batch.size
        return served

    # ------------------------------------------------------------------
    # Background dispatcher (production mode; tests drive drain() instead)
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Start the background dispatcher (idempotent)."""
        if self._dispatcher is not None:
            return
        self._wake = asyncio.Event()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def stop(self) -> None:
        """Stop the dispatcher and drain anything still queued."""
        if self._dispatcher is None:
            return
        task, self._dispatcher = self._dispatcher, None
        self._wake.set()
        task.cancel()
        try:
            await task
        except asyncio.CancelledError:
            pass
        self._wake = None
        await self.drain()

    async def _dispatch_loop(self) -> None:
        while True:
            deadline = self.batcher.next_deadline()
            if deadline is None:
                await self._wake.wait()
                self._wake.clear()
                continue
            delay = deadline - self._clock()
            if delay > 0:
                # Real-time only: the window timer.  Wakes early when a
                # submission fills a batch.
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=delay)
                except asyncio.TimeoutError:
                    pass
            self._wake.clear()
            self.serve_due()

    # ------------------------------------------------------------------
    # State-changing control plane
    # ------------------------------------------------------------------
    def update_history(
        self, user_id: int, new_items, tenant: str = "default"
    ) -> None:
        """Append click/consumption feedback and invalidate cached slates.

        The user's next request re-runs the model against the updated
        history — a stale slate is never served across this boundary, under
        any ``cache_user`` identity aliasing ``user_id``.
        """
        serving = self.tenants[tenant]
        new_items = np.asarray(new_items, dtype=np.int64)
        serving.histories[user_id] = np.concatenate(
            [np.asarray(serving.histories[user_id], dtype=np.int64), new_items]
        )
        if self.cache is not None:
            self.cache.invalidate_user(user_id, tenant=tenant)
        get_registry().counter("serve.history_updates", tenant=tenant).inc()

    def swap_model(self, reranker: Reranker, tenant: str = "default") -> Reranker:
        """Swap a tenant's model mid-flight; returns the old one.

        When the tenant runs behind a :class:`ResilientReranker`, the
        wrapper stays (breaker state and fallbacks intact) and only its
        primary is swapped.  Every cached slate for the tenant is dropped
        either way.
        """
        serving = self.tenants[tenant]
        if isinstance(serving.reranker, ResilientReranker):
            old = serving.reranker.swap_primary(reranker)
        else:
            old = serving.reranker
            serving.reranker = reranker
        if self.cache is not None:
            self.cache.clear(tenant=tenant)
        get_registry().counter("serve.model_swaps", tenant=tenant).inc()
        return old
