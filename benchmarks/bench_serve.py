"""Serving benchmark: the batched rerank service under Zipfian load (PR 9).

Drives :class:`repro.serve.RerankService` — RAPID behind a
:class:`~repro.resilience.degrade.ResilientReranker`, slate cache on —
with the closed-loop Zipfian load generator (millions of distinct
virtual users, hot-head traffic) in real-time mode and reports the
serving SLIs:

- **p50/p95/p99 request latency** (client-observed, queueing included),
- **requests/sec** sustained by the closed loop,
- **cache hit rate** and the **batch-size** distribution.

Acceptance (ISSUE PR 9): p99 request latency <= 50 ms (the serving SLO
threshold the degrade layer defends) and >= 300 requests/sec under the
closed loop.  Both land in ``BENCH_pr9.json`` and the shared trajectory
via :func:`bench_utils.publish_benchmark`, so the regression sentinel
(``python -m repro.obs.regress``) tracks them across PRs (``p99_ms``:
lower is better; ``requests_per_sec``: higher is better).

Run::

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import asyncio

from bench_utils import publish_benchmark

from repro.core import RapidConfig, RapidReranker
from repro.data import make_taobao_world
from repro.obs import get_registry
from repro.obs.slo import serving_slo
from repro.resilience.degrade import ResilientReranker
from repro.serve import (
    LoadGenerator,
    RerankService,
    ServingTenant,
    SlateCache,
    ZipfianWorkload,
)

BENCH_TAG = "pr9"
MAX_P99_MS = 50.0
MIN_RPS = 300.0

NUM_REQUESTS = 3000
CONCURRENCY = 32
NUM_VIRTUAL_USERS = 2_000_000
LIST_LENGTH = 50
MAX_BATCH = 16
MAX_WAIT_MS = 2.0
HIDDEN = 16


def build_service() -> "tuple[RerankService, ZipfianWorkload]":
    world = make_taobao_world("small", seed=0)
    histories = world.sample_histories()
    # Untrained weights: serving latency depends on shapes, not values.
    rapid = RapidReranker(
        RapidConfig(
            user_dim=world.population.feature_dim,
            item_dim=world.catalog.feature_dim,
            num_topics=world.catalog.num_topics,
            hidden=HIDDEN,
            seed=0,
        ),
        variant="rapid-pro",
    )
    resilient = ResilientReranker(
        rapid, deadline_ms=MAX_P99_MS, slo_monitor=serving_slo()
    )
    tenant = ServingTenant(
        resilient, world.catalog, world.population, list(histories)
    )
    service = RerankService(
        tenant,
        cache=SlateCache(capacity=8192, ttl_s=60.0),
        max_batch_size=MAX_BATCH,
        max_wait_ms=MAX_WAIT_MS,
        max_pending=4096,
    )
    workload = ZipfianWorkload(
        world.catalog,
        world.population,
        num_virtual_users=NUM_VIRTUAL_USERS,
        exponent=1.1,
        list_length=LIST_LENGTH,
        rescore_probability=0.05,
        seed=0,
    )
    return service, workload


async def run_load(service, workload) -> "tuple[dict, dict]":
    generator = LoadGenerator(service, workload, concurrency=CONCURRENCY)
    await service.start()
    try:
        # Warmup outside the timed window: weight casts, numpy pools, and
        # the cache's cold start all happen here.
        await generator.run(max(200, CONCURRENCY * 4))
        get_registry().reset()
        service.cache.clear()
        report = await generator.run(NUM_REQUESTS)
    finally:
        await service.stop()
    histogram = get_registry().histogram("serve.batch_size")
    batch_stats = {
        "mean_batch": round(histogram.mean, 2),
        "max_batch": MAX_BATCH,
        "forward_passes": histogram.count,
    }
    return report.summary(), batch_stats


def measure() -> dict:
    service, workload = build_service()
    summary, batch_stats = asyncio.run(run_load(service, workload))
    return {
        "benchmark": "serving_closed_loop",
        "num_requests": NUM_REQUESTS,
        "concurrency": CONCURRENCY,
        "num_virtual_users": NUM_VIRTUAL_USERS,
        "list_length": LIST_LENGTH,
        "zipf_exponent": 1.1,
        "hidden": HIDDEN,
        # Tracked by the regression sentinel:
        "p50_ms": summary["p50_ms"],
        "p95_ms": summary["p95_ms"],
        "p99_ms": summary["p99_ms"],
        "requests_per_sec": summary["requests_per_sec"],
        # Context (sentinel-ignored fractions/counts):
        "cache_hit_rate": summary["cache_hit_rate"],
        "shed": summary["shed"],
        "sources": summary["sources"],
        **batch_stats,
    }


def main() -> None:
    payload = measure()
    print(
        f"{'requests':>9} {'req/s':>9} {'p50 ms':>8} {'p95 ms':>8} "
        f"{'p99 ms':>8} {'hit rate':>9} {'mean batch':>11}"
    )
    print("-" * 68)
    print(
        f"{payload['num_requests']:>9} {payload['requests_per_sec']:>9.0f} "
        f"{payload['p50_ms']:>8.3f} {payload['p95_ms']:>8.3f} "
        f"{payload['p99_ms']:>8.3f} {payload['cache_hit_rate']:>9.3f} "
        f"{payload['mean_batch']:>11.2f}"
    )
    path = publish_benchmark(BENCH_TAG, payload)
    print(f"\nwrote {path}")
    assert payload["p99_ms"] <= MAX_P99_MS, (
        f"p99 request latency {payload['p99_ms']:.2f} ms exceeds the "
        f"{MAX_P99_MS:.0f} ms serving budget"
    )
    assert payload["requests_per_sec"] >= MIN_RPS, (
        f"throughput {payload['requests_per_sec']:.0f} req/s is below the "
        f"{MIN_RPS:.0f} req/s acceptance bar"
    )
    print(
        f"OK (p99 <= {MAX_P99_MS:.0f} ms and >= {MIN_RPS:.0f} req/s under "
        f"Zipfian closed-loop load)"
    )


if __name__ == "__main__":
    main()
