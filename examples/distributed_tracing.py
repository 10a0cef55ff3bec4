"""Distributed tracing: one request, a 2-worker pool, one merged timeline.

A serving parent opens a request span, ships its ``TraceContext`` to two
``multiprocessing`` workers that each re-rank a shard of the request
batch, and merges everyone's span records into a single Chrome/Perfetto
trace (``distributed_trace.json`` — open it at https://ui.perfetto.dev
or chrome://tracing).  Parent/child linkage survives the process
boundary because span ids are pid-qualified and the trace id rides in
the propagated context (DESIGN.md §9).

Along the way the parent serves through a :class:`ResilientReranker`
wired to the default serving SLO and prints the OpenMetrics exposition
a ``GET /metrics`` endpoint would return (every latency histogram also
exposes its last-60s window as a ``<name>_window`` family).

Run:  python examples/distributed_tracing.py
"""

from __future__ import annotations

import multiprocessing
from pathlib import Path

import numpy as np

from repro.data import RankingRequest, build_batch, make_taobao_world
from repro.obs import (
    current_context,
    merge_span_records,
    reset_tracer,
    serving_slo,
    span_records,
    trace,
    use_context,
    write_chrome_trace,
)
from repro.obs.context import TraceContext
from repro.obs.export import render_openmetrics
from repro.rerank import MMRReranker
from repro.resilience.degrade import ResilientReranker

TRACE_PATH = Path("distributed_trace.json")


def _requests(world, count: int, seed: int) -> list[RankingRequest]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        user = int(rng.integers(world.config.num_users))
        items = rng.choice(world.config.num_items, size=8, replace=False)
        out.append(RankingRequest(user, items, rng.normal(size=8)))
    return out


def rerank_shard(payload: dict) -> list[dict]:
    """Worker: adopt the parent's trace context, re-rank one shard."""
    reset_tracer()  # a spawned worker starts with a clean span buffer
    context = TraceContext.from_dict(payload["context"])
    world = make_taobao_world("tiny", seed=0)
    histories = world.sample_histories()
    with use_context(context):
        with trace(f"worker.shard-{payload['shard']}"):
            batch = build_batch(
                _requests(world, count=4, seed=payload["shard"]),
                world.catalog,
                world.population,
                histories,
            )
            with trace("worker.rerank"):
                MMRReranker().rerank(batch)
    return span_records()


def main() -> None:
    world = make_taobao_world("tiny", seed=0)
    histories = world.sample_histories()
    serving = ResilientReranker(
        MMRReranker(),
        fallbacks=[],
        deadline_ms=None,
        slo_monitor=serving_slo(min_events=1),
    )

    with trace("serve.request") as root:
        context = current_context()
        # The parent serves its own slice while the pool handles two more.
        batch = build_batch(
            _requests(world, count=4, seed=99),
            world.catalog,
            world.population,
            histories,
        )
        serving.rerank(batch)
        jobs = [{"context": context.to_dict(), "shard": s} for s in (1, 2)]
        with multiprocessing.get_context("spawn").Pool(2) as pool:
            worker_buffers = pool.map(rerank_shard, jobs)

    merged = merge_span_records(span_records(), *worker_buffers)
    write_chrome_trace(TRACE_PATH, merged)

    pids = sorted({record["pid"] for record in merged})
    children = [r for r in merged if r["parent_id"] == root.span_id]
    print(f"trace id           : {root.trace_id}")
    print(f"spans merged       : {len(merged)} across {len(pids)} processes")
    print(f"children of root   : {[c['name'] for c in children]}")
    print(f"timeline written to: {TRACE_PATH} (open in Perfetto)")
    print()
    print("serving metrics (GET /metrics exposition, truncated):")
    for line in render_openmetrics().splitlines():
        if "slo" in line or "resilience" in line:
            print(f"  {line}")

    assert len(pids) == 3, "expected parent + 2 worker processes"
    assert all(r["trace_id"] == root.trace_id for r in merged)


if __name__ == "__main__":
    main()
