"""Worker supervision: one process fleet, bounded restarts, graceful degradation.

Three layers (DESIGN.md §12):

- :class:`SupervisorCore` — the **sans-io state machine**.  It owns the
  per-slot restart budget and answers one question: *what to do about a
  death* (:meth:`~SupervisorCore.on_death` → restart with a
  decorrelated-jitter delay, or degrade to fewer workers once the budget
  is spent).  It is testable without a single sleep or subprocess.
- :class:`WorkerFleet` — the **process plumbing**, the only one in
  :mod:`repro.dist`.  It spawns a rank with a worker body, SIGKILLs and
  reaps it, turns pipe EOF and a dead process sentinel into one "dead"
  event (:meth:`~WorkerFleet.events`, which waits on the pipes and
  sentinels when nothing is ready), restarts or degrades through the
  core, and on close drains every worker's span buffer, deduplicated by
  ``span_id``.  Every worker starts from one bootstrap
  (:func:`_worker_main`): clear inherited chaos, reset the inherited
  tracer, adopt the parent's :class:`~repro.obs.context.TraceContext`,
  open a root span, run the body, ship the spans home.
- :class:`WorkerPool` — the **task farm**: a loop over the fleet's events
  that dispatches tasks, requeues a dead worker's task (accounted through
  :func:`repro.resilience.retry.record_retry`, so ``resilience.retries``
  covers in-band and out-of-band retries alike) and respawns under the
  core's budget.  Worker errors ship back as pickled exceptions and are
  classified with the same :class:`~repro.resilience.retry.RetryPolicy`
  machinery as local retries: retryable errors requeue the task, fatal
  ones abort the run as a :class:`DistError`.  Lockstep training
  (:mod:`repro.dist.train`) is the fleet's other loop.

Death detection is pipe EOF plus the process sentinel; there is no
heartbeat, so a worker that hangs without dying is not detected.

Fault points: the pool visits ``<site>`` (its dispatch site, e.g.
``dist.sweep.cell``) through
:func:`~repro.resilience.chaos.faultpoint_signal` before every dispatch —
a ``"kill"`` spec SIGKILLs the target worker (parent-side delivery keeps
``plan.fires()`` auditable in the test process) and an ``"error"`` spec
is absorbed as a transient dispatch failure.

Spans shipped home on close let
:func:`~repro.obs.context.write_chrome_trace` render the whole fleet on
one timeline.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import pickle
import signal
import time
from dataclasses import dataclass, field
from functools import partial
from multiprocessing.connection import wait as _mp_wait

import numpy as np

from ..obs.context import TraceContext, current_context, span_records, use_context
from ..obs.tracing import reset_tracer, trace
from ..resilience.chaos import clear_chaos, faultpoint_signal
from ..resilience.errors import InjectedFault, ResilienceError
from ..resilience.retry import RetryPolicy, next_backoff, record_retry

__all__ = [
    "DistError",
    "RestartPolicy",
    "RestartDecision",
    "SupervisorCore",
    "WorkerFleet",
    "WorkerPool",
    "picklable_error",
]

#: Upper bound on one wait for a fleet event; pipes and sentinels wake it sooner.
_POLL_S = 0.05
#: How long close waits for each message while draining a worker's spans.
_DRAIN_S = 5.0


class DistError(ResilienceError):
    """A distributed run failed in a classified way (budget spent, fleet gone)."""


@dataclass(frozen=True)
class RestartPolicy:
    """Restart budgets and backoff for one worker fleet.

    ``max_restarts`` bounds respawns *per worker slot*; once spent the
    slot is removed and the fleet degrades (``dist.degraded`` event).
    Backoff between respawns follows the same decorrelated-jitter
    schedule as :func:`repro.resilience.retry.call_with_retry`
    (:func:`~repro.resilience.retry.next_backoff`).  ``task_retry``
    classifies worker-reported errors (retryable → requeue the task,
    fatal → abort) and bounds per-task attempts.
    """

    max_restarts: int = 2
    base_delay: float = 0.01
    max_delay: float = 0.5
    task_retry: RetryPolicy = field(
        default_factory=lambda: RetryPolicy(max_attempts=3, base_delay=0.0)
    )
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be >= 0")


@dataclass(frozen=True)
class RestartDecision:
    """What the supervisor decided about one worker death."""

    action: str  # "restart" | "degrade"
    delay: float = 0.0


class SupervisorCore:
    """Sans-io restart-budget state machine.

    :class:`WorkerFleet` calls :meth:`on_death` when a worker is gone;
    everything here is pure bookkeeping plus telemetry.
    """

    def __init__(
        self, world_size: int, policy: RestartPolicy = RestartPolicy()
    ) -> None:
        if world_size < 1:
            raise ValueError("world_size must be >= 1")
        self.world_size = world_size
        self.policy = policy
        self.live: set[int] = set(range(world_size))
        self.removed: set[int] = set()
        self.restarts: dict[int, int] = {rank: 0 for rank in range(world_size)}
        self._rng = np.random.default_rng(policy.seed)
        self._prev_delay = {rank: policy.base_delay for rank in range(world_size)}
        self._gauge().set(float(len(self.live)))

    def on_death(self, rank: int) -> RestartDecision:
        """Decide restart-vs-degrade for a dead worker and account for it.

        Restarts increment ``dist.worker_restarts`` and emit a
        ``dist.worker.restart`` run-log event; an exhausted budget removes
        the slot, drops the ``dist.live_workers`` gauge, and emits
        ``dist.degraded``.
        """
        if rank not in self.live:
            raise ValueError(f"rank {rank} is not a live worker")
        if self.restarts[rank] >= self.policy.max_restarts:
            self.live.discard(rank)
            self.removed.add(rank)
            self._gauge().set(float(len(self.live)))
            self._log(
                "dist.degraded",
                rank=rank,
                restarts_spent=self.restarts[rank],
                live_workers=len(self.live),
            )
            return RestartDecision("degrade")
        self.restarts[rank] += 1
        delay = next_backoff(
            self._rng,
            self.policy.base_delay,
            self.policy.max_delay,
            self._prev_delay[rank],
        )
        self._prev_delay[rank] = delay
        self._counter("dist.worker_restarts").inc()
        self._log(
            "dist.worker.restart",
            rank=rank,
            incarnation=self.restarts[rank],
            delay_s=delay,
        )
        return RestartDecision("restart", delay)

    @property
    def total_restarts(self) -> int:
        return sum(self.restarts.values())

    # ------------------------------------------------------------------
    # Telemetry plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _counter(name: str):
        from ..obs.metrics import get_registry

        return get_registry().counter(name)

    @staticmethod
    def _gauge():
        from ..obs.metrics import get_registry

        return get_registry().gauge("dist.live_workers")

    @staticmethod
    def _log(event: str, **fields) -> None:
        from ..obs.runlog import get_run_logger

        logger = get_run_logger()
        if logger.active:
            logger.log(event, **fields)


def picklable_error(error: BaseException) -> BaseException:
    """``error`` if it survives a pickle round trip, else a :class:`DistError`.

    Workers ship exceptions to the parent over a pipe; an exception whose
    ``__init__`` signature breaks unpickling (multi-arg constructors that
    don't round-trip through ``args``) would otherwise crash the *parent*
    during ``recv``.  The substitute keeps the type name and message but
    classifies as unknown (fatal by default) — a worker error we cannot
    even transport is not one we blindly retry.
    """
    try:
        pickle.loads(pickle.dumps(error))
        return error
    except Exception:
        return DistError(f"{type(error).__name__}: {error}")


def _worker_main(conn, rank: int, incarnation: int, body, name: str, ctx_dict) -> None:
    """The bootstrap every fleet worker runs around ``body(conn, rank, incarnation)``.

    Fork inherits the parent's armed chaos plan, global sinks, and the
    parent's tracer — including any *still-open* span stack, under which
    this worker's root span would silently nest and never be recorded.
    :func:`clear_chaos` and :func:`reset_tracer` first, so faults
    scheduled for the parent don't replay in every child and the span
    buffer shipped home holds exactly this worker's spans.  A body that
    returns ends the worker with ``("done", rank, spans)``; a body that
    raises ships ``("error", rank, error)`` for the parent to classify.
    """
    clear_chaos()
    reset_tracer()
    context = TraceContext.from_dict(ctx_dict) if ctx_dict else None
    try:
        with use_context(context):
            with trace(f"{name}:{rank}"):
                body(conn, rank, incarnation)
        # the root just closed, so the freshly-reset tracer holds exactly
        # this incarnation's finished tree
        conn.send(("done", rank, span_records()))
    except (EOFError, OSError, KeyboardInterrupt):
        pass  # parent gone or shutting down: die quietly
    except Exception as error:  # classified by the parent
        try:
            conn.send(("error", rank, picklable_error(error)))
        except OSError:
            pass


class WorkerFleet:
    """Supervised worker processes, one per rank (see module docs).

    ``body(conn, rank, incarnation)`` runs in every worker after the
    bootstrap; ``incarnation`` counts from 0 per rank, so a body can arm
    something in a worker's first life only.  The root span of each
    worker is named ``f"{name}:{rank}"``.  Entering the fleet spawns every
    rank; leaving it normally drains the span buffers into
    :attr:`span_buffer`, leaving it on an exception kills the workers.
    """

    def __init__(
        self,
        num_workers: int,
        body,
        policy: RestartPolicy = RestartPolicy(),
        sleep=time.sleep,
        name: str = "dist.worker",
    ) -> None:
        self.body = body
        self.name = name
        self.policy = policy
        self.core = SupervisorCore(num_workers, policy)
        self._sleep = sleep
        self._mp = mp.get_context("fork")
        self._conns: dict[int, object] = {}
        self._procs: dict[int, object] = {}
        self._incarnation = dict.fromkeys(range(num_workers), 0)
        self.span_buffer: list[dict] = []
        self._span_ids: set[str] = set()
        context = current_context()
        self._ctx_dict = context.to_dict() if context is not None else None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def __enter__(self) -> "WorkerFleet":
        for rank in sorted(self.core.live):
            self.spawn(rank)
        return self

    def __exit__(self, exc_type, *exc_info) -> None:
        self.close(drain=exc_type is None)

    def spawn(self, rank: int) -> None:
        parent_conn, child_conn = self._mp.Pipe()
        process = self._mp.Process(
            target=_worker_main,
            args=(
                child_conn,
                rank,
                self._incarnation[rank],
                self.body,
                self.name,
                self._ctx_dict,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        self._incarnation[rank] += 1
        self._conns[rank] = parent_conn
        self._procs[rank] = process

    def kill(self, rank: int) -> None:
        process = self._procs.get(rank)
        if process is not None and process.is_alive():
            os.kill(process.pid, signal.SIGKILL)
            process.join()

    def reap(self, rank: int) -> None:
        conn = self._conns.pop(rank, None)
        if conn is not None:
            conn.close()
        process = self._procs.pop(rank, None)
        if process is not None:
            process.join(timeout=5.0)

    def send(self, rank: int, message) -> None:
        """Send to ``rank``; a dead worker surfaces as the next "dead" event."""
        try:
            self._conns[rank].send(message)
        except (BrokenPipeError, OSError, KeyError):
            pass

    def close(self, drain: bool = True) -> None:
        """Drain live workers' span buffers (if ``drain``), then kill and reap all."""
        if drain:
            for rank in sorted(self.core.live):
                self.send(rank, ("stop",))
                conn = self._conns.get(rank)
                while conn is not None and conn.poll(_DRAIN_S):
                    try:
                        message = conn.recv()
                    except (EOFError, OSError):
                        break
                    if message[0] == "done":
                        self._absorb_spans(message[2])
                        break
        for rank in list(self._procs):
            self.kill(rank)
            self.reap(rank)

    def _absorb_spans(self, records) -> None:
        for record in records or ():
            span_id = record.get("span_id")
            if span_id not in self._span_ids:
                self._span_ids.add(span_id)
                self.span_buffer.append(record)

    # ------------------------------------------------------------------
    # Events
    # ------------------------------------------------------------------
    def events(self, ranks) -> list[tuple[int, tuple | None]]:
        """One sweep over ``ranks``: ``(rank, message)``, ``message=None`` = dead.

        A dead worker is one whose pipe hit EOF or whose process sentinel
        fired with nothing left to read.  An ``("error", ...)`` message
        from the bootstrap is classified here: fatal raises
        :class:`DistError`, retryable kills the worker and reports it
        dead.  When no rank has an event, waits on the pipes and process
        sentinels (at most ``_POLL_S``) and returns an empty list.
        """
        events = []
        for rank in sorted(ranks):
            conn = self._conns.get(rank)
            if conn is None:
                continue
            if conn.poll(0):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    # EOF: the channel is finished (an EOF'd pipe stays
                    # poll-ready forever, so it must be handled *here*,
                    # not by the is-alive check below).
                    self.kill(rank)
                    message = None
                if message is not None and message[0] == "error":
                    error = message[2]
                    if self.policy.task_retry.classify(error) == "fatal":
                        raise DistError(f"worker {rank} failed fatally") from error
                    self.kill(rank)
                    message = None
                events.append((rank, message))
            elif not self._procs[rank].is_alive() and not conn.poll(0):
                events.append((rank, None))
        if not events:
            handles = []
            for rank in sorted(ranks):
                if rank in self._conns:
                    handles += [self._conns[rank], self._procs[rank].sentinel]
            if handles:
                _mp_wait(handles, timeout=_POLL_S)
        return events

    def on_death(self, rank: int) -> str:
        """Reap a dead worker, then respawn it after the backoff or degrade its slot."""
        self.reap(rank)
        decision = self.core.on_death(rank)
        if decision.action == "restart":
            if decision.delay > 0:
                self._sleep(decision.delay)
            self.spawn(rank)
        return decision.action


def _task_loop(fn, conn, rank: int, incarnation: int) -> None:
    """Pool worker body: run ``fn`` on each dispatched task until ``stop``."""
    while True:
        message = conn.recv()
        if message[0] == "stop":
            return
        _, index, payload = message
        try:
            with trace(f"dist.pool.task:{index}"):
                result = fn(payload)
            conn.send(("ok", rank, index, result))
        except BaseException as error:  # noqa: BLE001 - shipped home
            conn.send(("err", rank, index, picklable_error(error)))


class WorkerPool(WorkerFleet):
    """A supervised multiprocessing task farm (see module docs).

    ``fn(payload)`` runs in the workers; ``run(tasks)`` returns one result
    per task, in task order, surviving worker deaths up to the policy's
    budgets.  The ``site`` names the fault point visited at dispatch and
    the retry site used for requeue accounting.
    """

    def __init__(
        self,
        num_workers: int,
        fn,
        policy: RestartPolicy = RestartPolicy(),
        site: str = "dist.task",
        sleep=time.sleep,
    ) -> None:
        super().__init__(
            num_workers, partial(_task_loop, fn), policy, sleep, name="dist.pool.worker"
        )
        self.site = site

    def run(self, tasks: list) -> list:
        """Run every task; returns results in task order.

        Raises :class:`DistError` when a task exhausts its attempt budget,
        a worker reports a fatal error, or the whole fleet is gone.
        """
        results: list = [None] * len(tasks)
        pending = list(range(len(tasks)))
        attempts = [0] * len(tasks)
        assigned: dict[int, int] = {}
        idle = sorted(self.core.live)
        done = 0
        while done < len(tasks):
            if not self.core.live:
                raise DistError(
                    "no workers left: every restart budget is exhausted "
                    f"({len(tasks) - done} task(s) incomplete)"
                )
            while pending and idle:
                rank = idle.pop(0)
                index = pending.pop(0)
                assigned[rank] = index
                try:
                    spec = faultpoint_signal(self.site)
                except InjectedFault as error:
                    # transient dispatch failure: requeue under the task
                    # budget, the worker goes back to the idle pool
                    assigned.pop(rank, None)
                    idle.append(rank)
                    self._requeue(index, attempts, pending, error)
                    continue
                if spec is not None and spec.kind == "kill":
                    self.kill(rank)
                    continue  # the "dead" event requeues the task
                self.send(rank, ("task", index, tasks[index]))
            for rank, message in self.events(self.core.live):
                if message is None:
                    self._on_worker_death(rank, assigned, pending, attempts, idle)
                    continue
                kind, _, index = message[:3]
                assigned.pop(rank, None)
                idle.append(rank)
                if kind == "ok":
                    results[index] = message[3]
                    done += 1
                elif kind == "err":
                    error = message[3]
                    if self.policy.task_retry.classify(error) == "fatal":
                        raise DistError(
                            f"task {index} failed fatally in worker {rank}"
                        ) from error
                    self._requeue(index, attempts, pending, error)
        return results

    def _requeue(
        self, index: int, attempts: list[int], pending: list[int], error
    ) -> None:
        attempts[index] += 1
        record_retry(self.site, attempts[index], error)
        if attempts[index] >= self.policy.task_retry.max_attempts:
            raise DistError(
                f"task {index} failed on all {attempts[index]} attempt(s) "
                f"at {self.site!r}"
            ) from error
        pending.insert(0, index)

    def _on_worker_death(
        self,
        rank: int,
        assigned: dict[int, int],
        pending: list[int],
        attempts: list[int],
        idle: list[int],
    ) -> None:
        index = assigned.pop(rank, None)
        if index is not None:
            self._requeue(
                index,
                attempts,
                pending,
                DistError(f"worker {rank} died while running task {index}"),
            )
        if rank in idle:
            idle.remove(rank)
        if self.on_death(rank) == "restart":
            idle.append(rank)
