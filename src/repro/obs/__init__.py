"""``repro.obs`` — observability for the RAPID reproduction stack.

Cooperating pieces (each usable alone):

- :mod:`repro.obs.metrics` — process-global registry of counters, gauges,
  and histograms, with labeled series and a cardinality cap (overflow
  label sets collapse into one ``overflow="true"`` series, counted in
  ``obs.dropped_series``); each histogram reports lifetime p50/p95/p99
  and, from the same samples, a sliding-window view, so long-lived
  serving processes also see *recent* percentiles and event rates;
- :mod:`repro.obs.windows` — windowed good/bad event counters, the input
  to SLO burn rates;
- :mod:`repro.obs.tracing` — nested wall-clock spans via ``trace(name)``
  with trace/span/parent ids, exportable as a text tree or Chrome
  ``trace_event`` JSON;
- :mod:`repro.obs.context` — trace-context propagation across threads and
  ``multiprocessing`` workers, plus cross-process span-buffer merging
  into one Chrome trace;
- :mod:`repro.obs.runlog` — structured JSONL event log with a **null sink
  by default** and optional size-based rotation, so importing and running
  the library stays silent and free of file I/O until a caller opts in;
- :mod:`repro.obs.export` — OpenMetrics text exposition and periodic
  atomic JSON snapshots of the whole registry;
- :mod:`repro.obs.slo` — declarative SLOs evaluated as multi-window burn
  rates, publishing ``obs.slo.*`` gauges and alert events;
- :mod:`repro.obs.profiler` — opt-in background stack-sampling profiler
  with collapsed-stack (flamegraph) export;
- :mod:`repro.obs.autograd` — opt-in per-op forward/backward profiler for
  the ``repro.nn`` autograd engine;
- :mod:`repro.obs.regress` — benchmark-regression sentinel over
  ``benchmarks/results/trajectory.jsonl`` (``python -m repro.obs.regress``).

The one-liner for scripts is :func:`observed_run`::

    from repro.obs import observed_run

    with observed_run("run.jsonl"):
        train_rapid(model, requests, catalog, population, histories)

    # later: python -m repro.obs.report run.jsonl
"""

from __future__ import annotations

from contextlib import contextmanager

from .autograd import (
    disable_op_profiler,
    enable_op_profiler,
    is_op_profiler_enabled,
    op_stats,
    profile_ops,
    reset_op_stats,
)
from .context import (
    TraceContext,
    current_context,
    merge_span_records,
    propagated,
    span_records,
    use_context,
    write_chrome_trace,
)
from .export import (
    SnapshotExporter,
    render_openmetrics,
    write_openmetrics,
    write_snapshot,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    reset_registry,
)
from .profiler import (
    SamplingProfiler,
    get_profiler,
    sampling_profile,
    start_sampling,
    stop_sampling,
)
from .runlog import (
    JsonlSink,
    MemorySink,
    NullSink,
    RunLogger,
    get_run_logger,
    read_jsonl,
    read_jsonl_rotated,
    set_run_logger,
)
from .slo import (
    DEFAULT_BURN_WINDOWS,
    SLO,
    BurnWindow,
    SLOMonitor,
    SLOStatus,
    serving_slo,
)
from .tracing import Span, Tracer, get_tracer, reset_tracer, trace
from .windows import WindowedCounter

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "reset_registry",
    "WindowedCounter",
    "Span",
    "Tracer",
    "trace",
    "get_tracer",
    "reset_tracer",
    "TraceContext",
    "current_context",
    "use_context",
    "propagated",
    "span_records",
    "merge_span_records",
    "write_chrome_trace",
    "NullSink",
    "MemorySink",
    "JsonlSink",
    "RunLogger",
    "get_run_logger",
    "set_run_logger",
    "read_jsonl",
    "read_jsonl_rotated",
    "render_openmetrics",
    "write_openmetrics",
    "write_snapshot",
    "SnapshotExporter",
    "SLO",
    "BurnWindow",
    "SLOMonitor",
    "SLOStatus",
    "serving_slo",
    "DEFAULT_BURN_WINDOWS",
    "SamplingProfiler",
    "sampling_profile",
    "start_sampling",
    "stop_sampling",
    "get_profiler",
    "enable_op_profiler",
    "disable_op_profiler",
    "is_op_profiler_enabled",
    "profile_ops",
    "op_stats",
    "reset_op_stats",
    "flush_observability",
    "observed_run",
]


def flush_observability(logger: RunLogger | None = None) -> None:
    """Dump spans, op stats, profiler stacks, and metrics to the run log.

    Emits one ``span`` event per distinct span path (aggregated count and
    total duration), one ``autograd.op`` event per profiled op, one
    ``profiler.stack`` event per sampled stack (top 50, if the sampling
    profiler ran), and one ``metric`` event per registry series.  A
    null-sink logger makes this a no-op.
    """
    logger = logger if logger is not None else get_run_logger()
    if not logger.active:
        return
    aggregated: dict[str, list[float]] = {}
    for span, _, path in get_tracer().walk():
        row = aggregated.setdefault(path, [0, 0.0])
        row[0] += 1
        row[1] += span.duration_ms
    for path, (count, total_ms) in sorted(
        aggregated.items(), key=lambda kv: kv[1][1], reverse=True
    ):
        logger.log(
            "span",
            name=path.rsplit("/", 1)[-1],
            path=path,
            count=int(count),
            total_ms=total_ms,
            mean_ms=total_ms / count,
        )
    for row in op_stats():
        logger.log("autograd.op", **row)
    profiler = get_profiler()
    if profiler is not None and profiler.samples:
        for stack, count in profiler.stack_counts()[:50]:
            logger.log(
                "profiler.stack",
                stack=";".join(stack),
                leaf=stack[-1],
                samples=count,
                total_samples=profiler.samples,
            )
    for snapshot in get_registry().collect():
        logger.log("metric", **snapshot)


@contextmanager
def observed_run(path=None, run_id: str | None = None, fresh: bool = True):
    """Run a block with observability on, flushing everything at the end.

    Installs a :class:`RunLogger` globally (JSONL at ``path``, or an
    in-memory sink when ``path`` is None), optionally resets the registry
    and tracer so the log describes only this run, and on exit writes the
    span/op/metric summary events before restoring the previous logger.
    """
    sink = JsonlSink(path) if path is not None else MemorySink()
    logger = RunLogger(sink, run_id=run_id)
    if fresh:
        reset_registry()
        reset_tracer()
        reset_op_stats()
    previous = set_run_logger(logger)
    try:
        yield logger
    finally:
        flush_observability(logger)
        set_run_logger(previous)
        logger.close()
