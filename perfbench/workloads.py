"""The benchmark's three workloads: ``serve_hot``, ``serve_miss``, ``offline``.

Each workload is one function taking ``(seed, size, trace)`` and
returning a :class:`Outcome`: the end-to-end metrics, the per-layer
metrics (traced runs only), attempted/failed counts, exact counts that
repeat for a given seed, and the correctness verdict.  ``run.py`` turns
that into the printed record and result line; ``smoke.py`` runs the tiny
sizes.

Everything the timed phase sees is a function of the seed and the size:
the request stream is generated before set-up, batches close only when
they are full or when the coordinating loop drains a round in which
every client is waiting, and nothing closes on a wall-clock window.
Set-up (world, model, weight-cast warmup, cache fill) is repeated
``size.setups_before`` times before the timed phase and
``size.setups_after`` times after the correctness checks, and
``setup_s`` is the median of all of them: the host's speed drifts over
tens of seconds, so set-ups spread over the run sample more of it than
back-to-back ones.  The last set-up before the timed phase is the one
timed.
"""

from __future__ import annotations

import asyncio
import gc
import math
import resource
import statistics
import time
import zlib
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import RapidConfig, RapidReranker, TrainConfig
from repro.core import trainer as _trainer
from repro.data import RankingRequest, build_batch, make_taobao_world
from repro.data import batching as _batching
from repro.data.synthetic import SyntheticWorld
from repro.click.dcm import DependentClickModel
from repro.eval import experiment as _experiment
from repro.eval.experiment import evaluate_reranker, make_reranker, prepare_bundle
from repro.eval.protocol import ExperimentConfig
from repro.nn import Tensor, inference, kernels
from repro.nn.optim import Adam
from repro.obs import RunLogger, get_registry
from repro.obs import windows as obs_windows
from repro.obs.slo import serving_slo
from repro.rankers import DINRanker
from repro.resilience.degrade import ResilientReranker
from repro.serve import RerankService, ServingTenant, SlateCache, ZipfianWorkload
from repro.serve.service import ServiceOverloaded
from repro.utils.rng import make_rng

from tracer import Tracer

__all__ = [
    "Outcome",
    "ServeSize",
    "OfflineSize",
    "serve_hot",
    "serve_miss",
    "offline",
    "sizes",
]

LIST_LENGTH = 50  # serving candidates per request
HIDDEN = 16
MAX_BATCH = 16
CLIENTS = 32  # closed-loop clients on one event loop
REFERENCE_BATCH = 256  # rows per direct-rerank batch in the correctness check
TAIL_BLOCKS = 20  # latency_tail_ms is a median over this many blocks
TTL_S = 24 * 3600.0  # never expires within a run
OUT_DIR = Path(__file__).resolve().parent / "out"  # Chrome traces (git-ignored)

# Outcome codes of one served request.
HIT, MISS, SHED, ERROR = 0, 1, 2, 3


# ----------------------------------------------------------------------
# Sizes.  Work is fixed by (seed, --seconds): the nominal rates below were
# measured on the 2-core reference host, so a run's timed phase lasts
# about --seconds there and the same amount of work anywhere else.
# ----------------------------------------------------------------------
HOT_RATE = 12_000.0  # requests/s
MISS_RATE = 3_000.0  # requests/s
TRAIN_RATE = 2_600.0  # lists/s
EVAL_RATE = 4_500.0  # lists/s


@dataclass(frozen=True)
class ServeSize:
    requests: int  # timed requests
    fill: int  # untimed requests that bring the cache to steady state
    virtual_users: int
    capacity: int
    scale: str = "small"
    setups_before: int = 2
    setups_after: int = 3
    alone_checks: int = 256  # misses re-served strictly alone


@dataclass(frozen=True)
class OfflineSize:
    epochs: int
    eval_passes: int
    train_requests: int = 2000
    test_requests: int = 1000
    scale: str = "small"
    setups_before: int = 2
    setups_after: int = 3
    replay_batches: int = 4
    alone_checks: int = 64


def sizes(workload: str, seconds: float, tiny: bool = False):
    """The size preset for ``workload`` at ``seconds`` of timed work."""
    if workload == "serve_hot":
        if tiny:
            return ServeSize(400, 300, 300, 64, scale="tiny",
                             setups_before=1, setups_after=1, alone_checks=8)
        return ServeSize(round(HOT_RATE * seconds), 16_000, 6_000, 2_048)
    if workload == "serve_miss":
        if tiny:
            return ServeSize(300, 100, 300, 64, scale="tiny",
                             setups_before=1, setups_after=1, alone_checks=8)
        return ServeSize(round(MISS_RATE * seconds), 4_096, 6_000, 2_048)
    if workload == "offline":
        if tiny:
            return OfflineSize(2, 2, 128, 96, scale="tiny", setups_before=1,
                               setups_after=1, replay_batches=2, alone_checks=4)
        # Offline times 1.2x --seconds, 55% training and 45% evaluation:
        # evaluation sets both latencies and needs about 11 s to average
        # over the host's speed drift (6 s spread by 27% over ten seeds),
        # and offline's set-up and checks cost less than serve_miss's.
        timed = 1.2 * seconds
        epochs = max(2, round(TRAIN_RATE * timed * 0.55 / 2000))
        passes = max(2, round(EVAL_RATE * timed * 0.45 / 1000))
        return OfflineSize(epochs, passes)
    raise ValueError(f"unknown workload {workload!r}")


@dataclass
class Outcome:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    per_layer: dict = field(default_factory=dict)  # name -> (value, unit)
    counts: dict = field(default_factory=dict)
    details: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)  # failed check messages
    table: dict = field(default_factory=dict)  # traced self-time table


# ----------------------------------------------------------------------
# Small helpers
# ----------------------------------------------------------------------
def reset_peak_rss() -> None:
    """Reset the kernel's resident high-water mark to the current RSS.

    Called once the inputs exist, so ``peak_rss_mb`` covers set-up and the
    timed phase on top of what is resident then (interpreter, modules and
    the generated inputs).  A no-op where ``/proc/self/clear_refs`` is
    unavailable.
    """
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def peak_rss_mb() -> float:
    """Resident high-water mark since ``reset_peak_rss`` (MB)."""
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def block_max_ms(seconds: "list[float]", block: int = 4) -> float:
    """Slowest sample of each block of ``block`` consecutive ones, median over blocks (ms)."""
    values = np.asarray(seconds, dtype=np.float64) * 1000.0
    parts = np.array_split(values, max(1, values.size // block))
    return float(np.median([part.max() for part in parts]))


def tail_percentile(n: int) -> float:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for q in (99.0, 95.0, 90.0):
        if n * (100.0 - q) / 100.0 >= 10:
            return q
    return 50.0


def latency_stats(seconds: "list[float]") -> dict:
    """Mean, p50, p99 and tail of latencies given in seconds (request order).

    ``tail_ms`` is the tail percentile ``tail_q`` taken per block of
    consecutive samples, median over ``TAIL_BLOCKS`` blocks: a host stall of a
    fraction of a second raises the tail of the block it lands in, not
    the reported figure.  Misses complete in rounds of 32 with nearly
    equal latency, so a pooled p99 is set by the slowest ~1% of rounds.
    """
    values = np.asarray(seconds, dtype=np.float64) * 1000.0
    if values.size == 0:
        return {"n": 0}
    q = tail_percentile(values.size)
    return {
        "n": int(values.size),
        "mean_ms": float(values.mean()),
        "p50_ms": float(np.percentile(values, 50)),
        "p99_ms": float(np.percentile(values, 99)),
        "tail_q": q,
        "tail_ms": float(
            np.median(
                [
                    np.percentile(part, q)
                    for part in np.array_split(values, min(TAIL_BLOCKS, values.size))
                ]
            )
        ),
    }


def registry_totals() -> dict:
    """Counter values and histogram count/sum, summed over label sets."""
    totals: dict = {}
    for snap in get_registry().collect():
        name = snap["name"]
        if snap["kind"] == "counter":
            totals[name] = totals.get(name, 0.0) + snap["value"]
        elif snap["kind"] == "histogram":
            totals[name + ".count"] = totals.get(name + ".count", 0) + snap["count"]
            totals[name + ".sum"] = totals.get(name + ".sum", 0.0) + snap["sum"]
    return totals


def delta(after: dict, before: dict, key: str) -> float:
    return after.get(key, 0) - before.get(key, 0)


def per_call_ms(table: dict, name: str, self_time: bool = False) -> float:
    entry = table.get(name)
    if not entry or not entry["count"]:
        return 0.0
    return 1000.0 * entry["self_s" if self_time else "total_s"] / entry["count"]


def total_s(table: dict, name: str) -> float:
    return table.get(name, {}).get("total_s", 0.0)


def span(tracer: "Tracer | None", name: str):
    """A span when tracing, else nothing."""
    return tracer.span(name) if tracer is not None else nullcontext()


def crc(permutation: np.ndarray) -> int:
    return zlib.crc32(np.ascontiguousarray(permutation, dtype=np.int64))


def common_layer_metrics(table: dict, tracer: Tracer, roots, overhead: float) -> dict:
    """The per-layer metrics every workload emits (BENCHMARK.json per_layer)."""
    calls = table.get("rerank.rapid", {"count": 0})["count"]
    rows = tracer.counts.get("core.rows", 0)
    return {
        "core.relevance_ms": (per_call_ms(table, "core.relevance"), "ms"),
        "core.preference_ms": (per_call_ms(table, "core.preference"), "ms"),
        "core.coverage_ms": (per_call_ms(table, "core.diversity", self_time=True), "ms"),
        "core.head_ms": (per_call_ms(table, "core.head"), "ms"),
        "rerank.sort_ms": (per_call_ms(table, "rerank.rapid", self_time=True), "ms"),
        "core.forward_calls": (calls, "count"),
        "core.forward_rows": (rows / calls if calls else 0.0, "count"),
        "data.build_batch_ms": (per_call_ms(table, "data.build_batch"), "ms"),
        "setup.world_s": (total_s(table, "setup.world"), "s"),
        "setup.model_s": (total_s(table, "setup.model"), "s"),
        "unattributed_share": (tracer.unattributed_share(roots), "ratio"),
        "trace.overhead_share": (overhead, "ratio"),
    }


def trace_model(tracer: Tracer, rapid: RapidReranker) -> None:
    """Spans around RAPID's inference layers (one reranker instance)."""
    model = rapid.model

    def count_rows(sid, args):
        tracer.count("core.rows", args[0].batch_size)

    tracer.wrap(rapid, "rerank", "rerank.rapid", on_call=count_rows)
    tracer.wrap(model.relevance, "infer", "core.relevance")
    tracer.wrap(model.diversity, "infer", "core.diversity")
    tracer.wrap(model.diversity, "infer_preference", "core.preference")
    tracer.wrap(model.head, "infer_scores", "core.head")


# ----------------------------------------------------------------------
# Serving
# ----------------------------------------------------------------------
@dataclass
class Serving:
    world: SyntheticWorld
    histories: list
    rapid: RapidReranker
    resilient: ResilientReranker
    tenant: ServingTenant
    service: RerankService


@dataclass
class LoopResult:
    start: float
    end: float
    source: list  # HIT / MISS / SHED / ERROR per request
    latency: list  # seconds, client-observed
    slate: list  # crc32 of the served permutation
    cpu_s: float  # process CPU time of the loop

    @property
    def rate(self) -> float:
        """Served (hit or miss) requests per wall second."""
        served = sum(1 for kind in self.source if kind in (HIT, MISS))
        return served / (self.end - self.start)


def serve_inputs(kind: str, seed: int, size: ServeSize):
    """(requests, identities) for fill + timed phase, from the seed alone."""
    world = make_taobao_world(size.scale, seed=seed)
    total = size.fill + size.requests
    workload = ZipfianWorkload(
        world.catalog,
        world.population,
        num_virtual_users=size.virtual_users,
        exponent=1.1,
        list_length=min(LIST_LENGTH, world.catalog.features.shape[0]),
        rescore_probability=0.0 if kind == "hot" else 1.0,
        seed=seed,
    )
    if kind == "hot":
        # Hot users re-issue the identical request: identity = virtual user.
        identities = [workload.sample_virtual_user() for _ in range(total)]
        by_user: dict = {}
        for user in identities:
            if user not in by_user:
                by_user[user] = workload.request_for(user)
        return [by_user[user] for user in identities], identities
    # Every request carries fresh initial scores: a distinct identity each.
    return [workload.request() for _ in range(total)], list(range(total))


async def closed_loop(service: RerankService, requests, clients: int, tracer=None) -> LoopResult:
    """``clients`` closed-loop clients on one event loop.

    The loop drains only when every live client is waiting on a miss,
    so a round always holds ``clients`` misses: groups close full at
    ``max_batch_size`` and only the final round can be partial.
    """
    n = len(requests)
    source = [ERROR] * n
    latency = [0.0] * n
    slate = [0] * n
    cursor = 0
    active = clients
    clock = time.perf_counter

    async def client(track: int) -> None:
        nonlocal cursor, active
        if tracer is not None:
            tracer.set_track(track)
        rerank = service.rerank
        try:
            while cursor < n:
                index = cursor
                cursor += 1
                started = clock()
                try:
                    result = await rerank(requests[index])
                except ServiceOverloaded:
                    source[index] = SHED
                    continue
                except Exception:  # noqa: BLE001 - an errored request is a failed one
                    source[index] = ERROR
                    continue
                finished = clock()
                latency[index] = finished - started
                kind = result.source
                source[index] = HIT if kind == "cache" else MISS if kind == "batched" else SHED
                slate[index] = zlib.crc32(result.permutation)
        finally:
            active -= 1

    loop = asyncio.get_running_loop()
    start = clock()
    cpu_start = time.process_time()
    tasks = [loop.create_task(client(k + 1)) for k in range(min(clients, n))]
    active = len(tasks)
    batcher = service.batcher
    while active:
        await asyncio.sleep(0)
        if batcher.pending and batcher.pending >= active:
            await service.drain()
    end = clock()
    for task in tasks:
        task.result()
    return LoopResult(start, end, source, latency, slate, time.process_time() - cpu_start)


def serve_setup(
    seed: int, size: ServeSize, requests, tracer=None
) -> "tuple[Serving, LoopResult, float]":
    """World, model, warmup and cache fill; returns (serving, fill, seconds)."""
    get_registry().reset()
    gc.collect()
    started = time.perf_counter()
    with span(tracer, "setup.world"):
        world = make_taobao_world(size.scale, seed=seed)
        histories = world.sample_histories()
    with span(tracer, "setup.model"):
        rapid = RapidReranker(
            RapidConfig(
                user_dim=world.population.feature_dim,
                item_dim=world.catalog.feature_dim,
                num_topics=world.catalog.num_topics,
                hidden=HIDDEN,
                seed=seed,
            ),
            variant="rapid-pro",
        )
        resilient = ResilientReranker(rapid, deadline_ms=50.0, slo_monitor=serving_slo())
        tenant = ServingTenant(resilient, world.catalog, world.population, list(histories))
        service = RerankService(
            tenant,
            cache=SlateCache(capacity=size.capacity, ttl_s=TTL_S),
            max_batch_size=MAX_BATCH,
            max_wait_ms=2.0,
            max_pending=1024,
        )
    with span(tracer, "setup.warm"):
        resilient.warmup(tenant.build(requests[:MAX_BATCH]))
        fill = asyncio.run(closed_loop(service, requests[: size.fill], CLIENTS))
    elapsed = time.perf_counter() - started
    return Serving(world, histories, rapid, resilient, tenant, service), fill, elapsed


def trace_serving(tracer: Tracer, serving: Serving) -> None:
    """Spans around the serving stack's public calls (see NOTES.md).

    Besides one span per call, a miss gets three spans derived from the
    calls around it: ``serve.queue_wait`` (submit → its batch's build),
    ``serve.forward`` (build → end of the drain that served it) and
    ``serve.resume_wait`` (drain end → the client resumes and caches).
    """
    service = serving.service
    submitted: dict = {}  # id(request) -> (submit time, request span, track)
    in_drain: list = []  # (build start, request span, track) awaiting drain end
    drained: dict = {}  # request span -> drain end

    def on_submit(sid, args):
        request_sid = tracer.parent[sid]
        submitted[id(args[1].request)] = (tracer.start[sid], request_sid, tracer.track[sid])

    def on_build(sid, args):
        now = tracer.start[sid]
        for request in args[0]:
            entry = submitted.pop(id(request), None)
            if entry is not None:
                submit_t, parent, track = entry
                tracer.record("serve.queue_wait", submit_t, now, parent, track)
                in_drain.append((now, parent, track))

    def on_put(sid, args):
        request_sid = tracer.parent[sid]
        end = drained.pop(request_sid, None)
        if end is not None:
            tracer.record(
                "serve.resume_wait", end, tracer.start[sid], request_sid, tracer.track[sid]
            )

    original_drain = service.drain

    async def drain():
        with tracer.span("serve.drain") as sid:
            served = await original_drain()
        end = tracer.end[sid]
        for build_start, parent, track in in_drain:
            tracer.record("serve.forward", build_start, end, parent, track)
            drained[parent] = end
        in_drain.clear()
        return served

    tracer.wrap(service, "rerank", "serve.request")
    tracer.patch(service, "drain", drain)
    tracer.wrap(service.cache, "get", "serve.cache.get")
    tracer.wrap(service.cache, "put", "serve.cache.put", on_call=on_put)
    tracer.wrap(service.batcher, "submit", "serve.submit", on_call=on_submit)
    tracer.wrap(serving.tenant, "build", "data.build_batch", on_call=on_build)
    tracer.wrap(serving.resilient, "rerank", "resilience.rerank")
    trace_model(tracer, serving.rapid)


def check_serving(serving: Serving, requests, identities, phases, size: ServeSize):
    """Every served slate against the model's direct answer.

    Returns ``(per phase: (degraded, mismatched), alone_checked,
    alone_mismatched)``.  A slate that differs from RAPID's but equals a
    fallback stage's answer for that request is *degraded* (a deadline
    fallback, or a hit on a cached fallback slate): failed, not wrong.
    """
    distinct: dict = {}
    for identity, request in zip(identities, requests):
        distinct.setdefault(identity, request)
    keys = list(distinct)
    world = serving.world

    def direct(reranker, reqs):
        batch = build_batch(
            [RankingRequest(r.user_id, r.items, r.initial_scores) for r in reqs],
            world.catalog,
            world.population,
            serving.histories,
        )
        return reranker.rerank(batch)

    reference: dict = {}
    for lo in range(0, len(keys), REFERENCE_BATCH):
        chunk = keys[lo : lo + REFERENCE_BATCH]
        for key, perm in zip(chunk, direct(serving.rapid, [distinct[k] for k in chunk])):
            reference[key] = crc(perm)
    alone_keys = keys[:: max(1, len(keys) // max(1, size.alone_checks))][: size.alone_checks]
    alone_mismatched = sum(
        crc(direct(serving.rapid, [distinct[key]])[0]) != reference[key] for key in alone_keys
    )
    degraded_slates: dict = {}

    def is_degraded(key, value) -> bool:
        if key not in degraded_slates:
            request = distinct[key]
            degraded_slates[key] = {crc(np.arange(request.list_length))} | {
                crc(direct(stage, [request])[0]) for stage in serving.resilient.fallbacks
            }
        return value in degraded_slates[key]

    results = []
    offset = 0
    for phase in phases:
        degraded = mismatched = 0
        for index, (kind, value) in enumerate(zip(phase.source, phase.slate)):
            key = identities[offset + index]
            if kind in (HIT, MISS) and value != reference[key]:
                if is_degraded(key, value):
                    degraded += 1
                else:
                    mismatched += 1
        results.append((degraded, mismatched))
        offset += len(phase.source)
    return results, len(alone_keys), alone_mismatched


def _serve(kind: str, seed: int, size: ServeSize, trace: bool) -> Outcome:
    obs_windows.enable_windowed()
    requests, identities = serve_inputs(kind, seed, size)
    timed_requests = requests[size.fill :]
    gc.freeze()  # collections need not traverse the inputs
    reset_peak_rss()

    def timed(serving: Serving, reqs, tracer=None):
        gc.collect()
        before = registry_totals()
        loop = asyncio.run(closed_loop(serving.service, reqs, CLIENTS, tracer))
        return loop, before, registry_totals()

    tracer = None
    table: dict = {}
    overhead = 0.0
    if not trace:
        setup_times = []
        for _ in range(size.setups_before):
            serving = fill = None  # free the previous set-up before the next one
            serving, fill, seconds = serve_setup(seed, size, requests)
            setup_times.append(seconds)
        loop, before, after = timed(serving, timed_requests)
        phases = [fill, loop]
        phase_identities = identities
    else:
        # Untraced then traced, half the work each, fresh set-up for both.
        half = len(timed_requests) // 2
        serving, fill, _ = serve_setup(seed, size, requests)
        plain, _, _ = timed(serving, timed_requests[:half])
        serving = fill = None
        tracer = Tracer()
        serving, fill, seconds = serve_setup(seed, size, requests, tracer)
        setup_times = [seconds]
        trace_serving(tracer, serving)
        try:
            loop, before, after = timed(serving, timed_requests[:half], tracer)
        finally:
            tracer.restore()
        overhead = plain.rate / loop.rate - 1.0
        table = tracer.table()
        phases = [fill, loop]
        phase_identities = identities[: size.fill + half]
    peak = peak_rss_mb()
    wall = loop.end - loop.start
    checked, alone_checked, alone_mismatched = check_serving(
        serving, requests, phase_identities, phases, size
    )
    (_, fill_mismatched), (degraded, mismatched) = checked
    serving = fill = phases = None
    if not trace:
        for _ in range(size.setups_after):
            setup_times.append(serve_setup(seed, size, requests)[2])

    source = loop.source
    hits = [lat for k, lat in zip(source, loop.latency) if k == HIT]
    misses = [lat for k, lat in zip(source, loop.latency) if k == MISS]
    shed = source.count(SHED)
    errors = source.count(ERROR)
    fallbacks = int(delta(after, before, "resilience.fallbacks"))
    attempted = len(source)
    failed = shed + errors + degraded + mismatched
    checks = []
    if alone_mismatched:
        checks.append(f"{alone_mismatched} slates differ between a reference batch and alone")
    if fill_mismatched:
        checks.append(f"{fill_mismatched} fill-phase slates differ from RAPID and every fallback")
    if mismatched:
        checks.append(f"{mismatched} served slates differ from RAPID and every fallback")
    correct = not checks

    hit_stats, miss_stats = latency_stats(hits), latency_stats(misses)
    main = hit_stats if kind == "hot" else miss_stats
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak, "MB"),
        "throughput_per_s": (loop.rate, "1/s"),
        "latency_mean_ms": (main.get("mean_ms", 0.0), "ms"),
        "latency_tail_ms": (main.get("tail_ms", 0.0), "ms"),
    }
    counts = {
        "requests": attempted,
        "hits": source.count(HIT),
        "misses": source.count(MISS),
        "shed": shed,
        "errors": errors,
        "fallbacks": fallbacks,
        "degraded": degraded,
        "cache_hits": int(delta(after, before, "serve.cache.hits")),
        "cache_misses": int(delta(after, before, "serve.cache.misses")),
        "cache_evictions": int(delta(after, before, "serve.cache.evictions")),
        "forward_calls": int(delta(after, before, "serve.batch_size.count")),
        "batch_rows": int(delta(after, before, "serve.batch_size.sum")),
        "alone_checked": alone_checked,
        "alone_mismatched": alone_mismatched,
    }
    named = {
        "throughput_per_s": (metrics["throughput_per_s"][0], "1/s"),
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    for prefix, stats in (("hit", hit_stats), ("miss", miss_stats)):
        if stats["n"]:
            named[f"{prefix}_latency_mean_ms"] = (stats["mean_ms"], "ms")
            named[f"{prefix}_latency_p50_ms"] = (stats["p50_ms"], "ms")
            named[f"{prefix}_latency_p99_ms"] = (stats["tail_ms"], "ms")
    details = {
        "named_metrics": named,
        "latency_samples": main["n"],
        "tail_percentile": main.get("tail_q"),
        "timed_wall_s": wall,
        "timed_cpu_s": loop.cpu_s,
        "setup_times_s": setup_times,
        "hit_ratio": counts["cache_hits"] / max(1, counts["cache_hits"] + counts["cache_misses"]),
    }
    outcome = Outcome(correct, attempted, failed, metrics, counts=counts,
                      details=details, checks=checks)
    if tracer is not None:
        outcome.table = table
        outcome.per_layer = common_layer_metrics(
            table, tracer, ("serve.request", "serve.drain"), overhead
        )
        cache_calls = counts["cache_hits"] + counts["cache_misses"]
        outcome.details["layer_metrics"] = {
            "serve.request_self_ms": (per_call_ms(table, "serve.request", self_time=True), "ms"),
            "serve.cache.get_us": (1000.0 * per_call_ms(table, "serve.cache.get"), "us"),
            "serve.cache.hit_ratio": (counts["cache_hits"] / max(1, cache_calls), "ratio"),
            "serve.cache.put_us": (1000.0 * per_call_ms(table, "serve.cache.put"), "us"),
            "serve.cache.evictions": (counts["cache_evictions"], "count"),
            "serve.queue_wait_ms": (per_call_ms(table, "serve.queue_wait"), "ms"),
            "serve.resume_wait_ms": (per_call_ms(table, "serve.resume_wait"), "ms"),
            "serve.batch_rows": (counts["batch_rows"] / max(1, counts["forward_calls"]), "count"),
            "serve.forward_calls": (counts["forward_calls"], "count"),
            "resilience.self_ms": (per_call_ms(table, "resilience.rerank", self_time=True), "ms"),
            "resilience.fallbacks": (fallbacks, "count"),
            "setup.warm_s": (total_s(table, "setup.warm"), "s"),
        }
        path = OUT_DIR / f"trace_serve_{kind}_{seed}.json"
        outcome.details["chrome_trace"] = tracer.write_chrome_trace(path)
    return outcome


def serve_hot(seed: int, size: ServeSize, trace: bool) -> Outcome:
    return _serve("hot", seed, size, trace)


def serve_miss(seed: int, size: ServeSize, trace: bool) -> Outcome:
    return _serve("miss", seed, size, trace)


# ----------------------------------------------------------------------
# Offline: one Table-II cell (taobao, DIN, DCM lambda=0.5, L=20)
# ----------------------------------------------------------------------
class _StampSink:
    """Run-log sink that stamps each event with ``perf_counter`` on arrival."""

    active = True

    def __init__(self) -> None:
        self.events: list = []

    def write(self, record: dict) -> None:
        self.events.append((time.perf_counter(), record))

    def close(self) -> None:
        pass


def offline_config(seed: int, size: OfflineSize, epochs: int) -> ExperimentConfig:
    return ExperimentConfig(
        dataset="taobao",
        scale=size.scale,
        tradeoff=0.5,
        initial_ranker="din",
        list_length=20,
        num_train_requests=size.train_requests,
        num_test_requests=size.test_requests,
        hidden=HIDDEN,
        train=TrainConfig(epochs=epochs, seed=seed),
        seed=seed,
    )


def offline_setup(config: ExperimentConfig, tracer=None):
    """World, initial ranker, click simulation and model; returns (bundle, rapid, s)."""
    get_registry().reset()
    gc.collect()
    started = time.perf_counter()
    bundle = prepare_bundle(config)
    with span(tracer, "setup.model"):
        rapid = make_reranker("rapid-pro", bundle)
    return bundle, rapid, time.perf_counter() - started


def trace_offline_setup(tracer: Tracer) -> None:
    builders = dict(_experiment._WORLD_BUILDERS)
    world_fn = builders["taobao"]

    def build_world(*args, **kwargs):
        with tracer.span("setup.world"):
            return world_fn(*args, **kwargs)

    builders["taobao"] = build_world
    tracer.patch(_experiment, "_WORLD_BUILDERS", builders)
    tracer.wrap(SyntheticWorld, "sample_histories", "setup.world")
    tracer.wrap(SyntheticWorld, "sample_candidate_sets", "setup.candidates")
    tracer.wrap(DINRanker, "fit", "setup.ranker_fit")
    tracer.wrap(DINRanker, "rank", "setup.ranker_score")
    tracer.wrap(DependentClickModel, "simulate", "setup.click_sim")


def trace_offline_run(tracer: Tracer, rapid: RapidReranker) -> None:
    model = rapid.model
    batch_token: list = []

    def backward_batch(*args, **kwargs):
        batch_token.append(tracer.begin("train.batch"))
        return original_backward(*args, **kwargs)

    def apply_step(*args, **kwargs):
        try:
            with tracer.span("train.step"):
                return original_step(*args, **kwargs)
        finally:
            tracer.end_span(batch_token.pop())

    original_backward = _trainer.backward_batch
    original_step = _trainer.apply_step
    tracer.patch(_trainer, "backward_batch", backward_batch)
    tracer.patch(_trainer, "apply_step", apply_step)
    tracer.wrap(model, "forward", "train.forward")
    tracer.wrap(Tensor, "backward", "train.backward")
    tracer.wrap(_batching, "build_batch", "data.build_batch")
    tracer.wrap(_experiment, "build_batch", "data.build_batch")
    for name in ("clicks_at_k", "ndcg_at_k", "div_at_k", "satis_at_k"):
        tracer.wrap(_experiment, name, "eval.metrics")
    tracer.wrap(DependentClickModel, "attraction_probabilities", "eval.dcm")
    tracer.wrap(DependentClickModel, "termination_probabilities", "eval.dcm")
    trace_model(tracer, rapid)


def reference_metrics(bundle, permutations, ks=(5, 10)) -> dict:
    """click/ndcg/div/satis@k recomputed from the slates, independently."""
    world = bundle.world
    dcm = bundle.click_model
    lam = dcm.tradeoff
    relevance = world.relevance_matrix()
    coverage = world.catalog.coverage
    rho = world.population.diversity_weight
    sums = {f"{m}@{k}": 0.0 for k in ks for m in ("click", "ndcg", "div", "satis")}
    for request, perm in zip(bundle.test_requests, permutations):
        items = request.items[perm[: request.list_length]]
        tau = coverage[items]
        uncovered = np.vstack([np.ones((1, tau.shape[1])), np.cumprod(1.0 - tau, axis=0)])
        zeta = tau * uncovered[:-1]
        blend = lam * relevance[request.user_id, items] + (1 - lam) * (zeta @ rho[request.user_id])
        phi = np.clip(blend, 0.0, 1.0)
        eps = dcm.base_termination * dcm.termination_decay ** np.arange(len(items))
        examine = np.concatenate([[1.0], np.cumprod(1.0 - phi * eps)[:-1]])
        clicks = examine * phi
        ideal = np.sort(phi)[::-1]
        for k in ks:
            discount = 1.0 / np.log2(np.arange(2, k + 2))
            idcg = float((ideal[:k] * discount[: len(ideal[:k])]).sum())
            dcg = float((phi[:k] * discount[: len(phi[:k])]).sum())
            sums[f"click@{k}"] += float(clicks[:k].sum())
            sums[f"ndcg@{k}"] += dcg / idcg if idcg > 0 else 0.0
            sums[f"div@{k}"] += float((1.0 - uncovered[min(k, len(items))]).sum())
            sums[f"satis@{k}"] += 1.0 - float(np.prod(1.0 - eps[:k] * phi[:k]))
    n = len(bundle.test_requests)
    return {key: value / n for key, value in sums.items()}


def replay_losses(config: ExperimentConfig, bundle, batches: int) -> list:
    """First ``batches`` training losses on the composed-kernel oracle path."""
    reference = make_reranker("rapid-pro", bundle)
    model = reference.model
    train = config.train
    optimizer = Adam(model.parameters(), lr=train.lr, weight_decay=train.weight_decay)
    noise_rng = make_rng(train.seed + 1)
    model.train()
    losses = []
    with kernels.use_fused(False):
        iterator = _batching.iterate_batches(
            bundle.train_requests,
            bundle.world.catalog,
            bundle.world.population,
            bundle.histories,
            batch_size=train.batch_size,
            shuffle=True,
            seed=train.seed,
            topic_history_length=train.topic_history_length,
            flat_history_length=train.flat_history_length,
        )
        for _, batch in zip(range(batches), iterator):
            loss, _ = _trainer.backward_batch(model, optimizer, batch, noise_rng)
            _trainer.apply_step(model, optimizer, train.grad_clip)
            losses.append(loss.item())
    return losses


def train_and_eval(config, bundle, rapid: RapidReranker, passes: int, tracer=None):
    """Fit for ``config.train.epochs`` then evaluate ``passes`` times."""
    sink = _StampSink()
    captured: list = []
    original = rapid.rerank
    wrapped = "rerank" in rapid.__dict__  # the tracer's span wrapper

    def capture(batch):
        permutations = original(batch)
        captured.append(permutations)
        return permutations

    rapid.rerank = capture  # slates for the correctness check
    try:
        gc.collect()
        with span(tracer, "train.run"):
            train_start = time.perf_counter()
            losses = _trainer.train_rapid(
                rapid.model,
                bundle.train_requests,
                bundle.world.catalog,
                bundle.world.population,
                bundle.histories,
                config=config.train,
                run_logger=RunLogger(sink=sink),
            )
            train_end = time.perf_counter()
        eval_times, results = [], []
        for _ in range(passes):
            captured.clear()
            gc.collect()
            with span(tracer, "eval.run"):
                started = time.perf_counter()
                results.append(evaluate_reranker(rapid, bundle))
                eval_times.append(time.perf_counter() - started)
    finally:
        if wrapped:
            rapid.rerank = original
        else:
            del rapid.rerank
    permutations = [row for block in captured for row in block]
    return {
        "losses": losses,
        "events": sink.events,
        "train_start": train_start,
        "train_s": train_end - train_start,
        "eval_times": eval_times,
        "results": results,
        "permutations": permutations,
        "eval_batches": len(captured),
    }


def train_events(run: dict):
    """(per-batch cycle seconds, (epoch, loss) per batch) from the run log.

    A batch's cycle runs from the previous run-log event to its own
    ``train.batch`` event: building the batch, the step, and the logging.
    """
    cycles, batch_losses = [], []
    previous = run["train_start"]
    for stamp, record in run["events"]:
        if record["event"] == "train.batch":
            cycles.append(stamp - previous)
            batch_losses.append((record["epoch"], record["loss"]))
        previous = stamp
    return cycles, batch_losses


def rates(run: dict, size: OfflineSize) -> "tuple[float, float]":
    """(training lists/s, evaluated lists/s) over the whole timed phases."""
    train = size.train_requests * len(run["losses"]) / run["train_s"]
    evaluated = size.test_requests * len(run["eval_times"]) / sum(run["eval_times"])
    return train, evaluated


def check_offline(config, bundle, rapid, run: dict, size: OfflineSize) -> "tuple[list, int]":
    """Loss replay, bookkeeping, metric recomputation and slate checks."""
    checks = []
    failed = 0
    _, batch_losses = train_events(run)
    losses = run["losses"]
    if not all(math.isfinite(v) for v in losses):
        checks.append("non-finite epoch loss")
    bad = sum(not math.isfinite(loss) for _, loss in batch_losses)
    failed += bad
    for epoch, value in enumerate(losses):
        mean = float(np.mean([loss for e, loss in batch_losses if e == epoch]))
        if mean != value:
            checks.append(f"epoch {epoch} loss {value!r} != mean of its batches {mean!r}")
    replay = replay_losses(config, bundle, size.replay_batches)
    observed = [loss for e, loss in batch_losses if e == 0][: len(replay)]
    if not np.allclose(replay, observed, rtol=1e-9, atol=0.0):
        checks.append(f"fused losses {observed} != composed-kernel replay {replay}")

    metrics = run["results"][-1].metrics
    for result in run["results"][:-1]:
        if result.metrics != metrics:
            checks.append("eval passes disagree")
    reference = reference_metrics(bundle, run["permutations"])
    for key, value in reference.items():
        if not math.isclose(metrics[key], value, rel_tol=1e-9, abs_tol=1e-12):
            checks.append(f"{key}: evaluate_reranker {metrics[key]!r} != reference {value!r}")

    requests = bundle.test_requests
    catalog, population = bundle.world.catalog, bundle.world.population

    def batch_of(reqs):
        return build_batch(
            reqs, catalog, population, bundle.histories,
            topic_history_length=config.train.topic_history_length,
            flat_history_length=config.train.flat_history_length,
        )

    step = max(1, len(requests) // size.alone_checks)
    for index in range(0, len(requests), step):
        alone = rapid.rerank(batch_of([requests[index]]))[0]
        if not np.array_equal(alone, run["permutations"][index]):
            failed += 1
    if failed:
        checks.append(f"{failed} evaluated slates differ from reranking the list alone")
    sample = batch_of(requests[:64])
    fast = rapid.score_batch(sample)
    with inference.use_infer(False):
        tape = rapid.score_batch(sample)
    if not np.allclose(fast, tape, rtol=1e-4, atol=1e-5):
        checks.append(
            f"float32 inference scores drift from the float64 tape path by "
            f"{float(np.max(np.abs(fast - tape))):.3g}"
        )
    return checks, failed


def offline(seed: int, size: OfflineSize, trace: bool) -> Outcome:
    tracer = None
    overhead = 0.0
    reset_peak_rss()
    if not trace:
        config = offline_config(seed, size, size.epochs)
        setup_times = []
        for _ in range(size.setups_before):
            bundle = rapid = None  # free the previous set-up before the next one
            bundle, rapid, seconds = offline_setup(config)
            setup_times.append(seconds)
        run = train_and_eval(config, bundle, rapid, size.eval_passes)
    else:
        epochs = max(1, size.epochs // 2)
        passes = max(1, size.eval_passes // 2)
        config = offline_config(seed, size, epochs)
        bundle, rapid, _ = offline_setup(config)
        plain = train_and_eval(config, bundle, rapid, passes)
        bundle = rapid = None
        tracer = Tracer()
        trace_offline_setup(tracer)
        try:
            with tracer.span("setup"):
                bundle, rapid, seconds = offline_setup(config, tracer)
        finally:
            tracer.restore()
        setup_times = [seconds]
        trace_offline_run(tracer, rapid)
        try:
            run = train_and_eval(config, bundle, rapid, passes, tracer)
        finally:
            tracer.restore()
        overhead = rates(plain, size)[0] / rates(run, size)[0] - 1.0

    peak = peak_rss_mb()
    checks, failed = check_offline(config, bundle, rapid, run, size)
    bundle = rapid = None
    if not trace:
        for _ in range(size.setups_after):
            setup_times.append(offline_setup(config)[2])
    cycles, batch_losses = train_events(run)
    train_rate, eval_rate = rates(run, size)
    batch = latency_stats(cycles)
    # Training sets throughput_per_s; the latencies time whole eval passes
    # (re-rank, DCM attraction and metrics over the test split).
    eval_mean_ms = 1000.0 * statistics.mean(run["eval_times"])
    eval_tail_ms = block_max_ms(run["eval_times"])
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak, "MB"),
        "throughput_per_s": (train_rate, "1/s"),
        "latency_mean_ms": (eval_mean_ms, "ms"),
        "latency_tail_ms": (eval_tail_ms, "ms"),
    }
    train_batches = len(batch_losses)
    eval_lists = size.test_requests * len(run["eval_times"])
    counts = {
        "train_batches": train_batches,
        "train_lists": size.train_requests * len(run["losses"]),
        "eval_lists": eval_lists,
        "eval_batches_per_pass": run["eval_batches"],
    }
    named = {
        "train_lists_per_s": (train_rate, "1/s"),
        "eval_lists_per_s": (eval_rate, "1/s"),
        "eval_pass_mean_ms": (eval_mean_ms, "ms"),
        "eval_pass_tail_ms": (eval_tail_ms, "ms"),
        "train_batch_mean_ms": (batch["mean_ms"], "ms"),
        "train_batch_p50_ms": (batch["p50_ms"], "ms"),
        f"train_batch_p{batch['tail_q']:g}_ms": (batch["tail_ms"], "ms"),
        "setup_s": metrics["setup_s"],
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    details = {
        "named_metrics": named,
        "latency_samples": batch["n"],
        "tail_percentile": batch["tail_q"],
        "setup_times_s": setup_times,
        "epoch_losses": run["losses"],
        "eval_scores": run["results"][-1].metrics,
    }
    outcome = Outcome(not checks, train_batches + eval_lists, failed, metrics,
                      counts=counts, details=details, checks=checks)
    if tracer is not None:
        table = tracer.table()
        outcome.table = table
        outcome.per_layer = common_layer_metrics(
            table, tracer, ("setup", "train.run", "eval.run"), overhead
        )
        passes = len(run["eval_times"])
        outcome.details["layer_metrics"] = {
            "train.build_batch_ms": (
                1000.0 * tracer.total_s("data.build_batch", "train.run") / max(1, train_batches),
                "ms",
            ),
            "train.forward_ms": (per_call_ms(table, "train.forward"), "ms"),
            "train.backward_ms": (per_call_ms(table, "train.backward"), "ms"),
            "train.step_ms": (per_call_ms(table, "train.step"), "ms"),
            "train.batch_self_ms": (per_call_ms(table, "train.batch", self_time=True), "ms"),
            "eval.rerank_ms": (per_call_ms(table, "rerank.rapid"), "ms"),
            "eval.metrics_ms": (
                1000.0 * (total_s(table, "eval.metrics") + total_s(table, "eval.dcm")) / passes,
                "ms",
            ),
            "eval.overhead_share": (rates(plain, size)[1] / eval_rate - 1.0, "ratio"),
            "setup.ranker_fit_s": (total_s(table, "setup.ranker_fit"), "s"),
            "setup.ranker_score_s": (total_s(table, "setup.ranker_score"), "s"),
            "setup.candidates_s": (total_s(table, "setup.candidates"), "s"),
            "setup.click_sim_s": (total_s(table, "setup.click_sim"), "s"),
        }
        path = OUT_DIR / f"trace_offline_{seed}.json"
        outcome.details["chrome_trace"] = tracer.write_chrome_trace(path)
    return outcome
