"""Supervisor tests: sans-io state machine, then the real worker pool.

The :class:`SupervisorCore` suite runs with no sleeps and no
subprocesses and pins the restart-budget/backoff contract.
The :class:`WorkerPool` suite spawns real (tiny) worker processes and
proves the requeue/restart/degrade paths under parent-side chaos, where
``plan.fires()`` is auditable against the retry and restart counters.
"""

from __future__ import annotations

import pytest

from repro.dist import (
    DistError,
    RestartPolicy,
    SupervisorCore,
    WorkerPool,
)
from repro.dist.supervisor import picklable_error
from repro.obs import MemorySink, RunLogger, get_registry, set_run_logger
from repro.resilience import (
    FaultSpec,
    RetryBudgetExceeded,
    RetryPolicy,
    chaos,
)

pytestmark = pytest.mark.dist

NO_SLEEP = lambda seconds: None  # noqa: E731 - dist tests never really wait


def _core(world_size=2, **policy_kwargs):
    return SupervisorCore(world_size, RestartPolicy(**policy_kwargs))


class TestRestartPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            RestartPolicy(max_restarts=-1)

    def test_defaults_reuse_retry_machinery(self):
        policy = RestartPolicy()
        assert isinstance(policy.task_retry, RetryPolicy)
        assert policy.task_retry.classify(OSError()) == "retryable"
        assert policy.task_retry.classify(ValueError()) == "fatal"


class TestSupervisorCore:
    def test_world_size_validation(self):
        with pytest.raises(ValueError):
            SupervisorCore(0)

    def test_restart_then_degrade_budget(self):
        core = _core(max_restarts=1)
        first = core.on_death(0)
        assert first.action == "restart"
        assert core.restarts[0] == 1 and 0 in core.live
        second = core.on_death(0)
        assert second.action == "degrade"
        assert core.live == {1} and core.removed == {0}
        assert core.total_restarts == 1
        with pytest.raises(ValueError):
            core.on_death(0)  # not live anymore

    def test_degrade_updates_gauge_and_runlog(self):
        sink = MemorySink()
        previous = set_run_logger(RunLogger(sink))
        try:
            core = _core(max_restarts=0)
            assert core.on_death(1).action == "degrade"
        finally:
            set_run_logger(previous)
        assert get_registry().gauge("dist.live_workers").value == 1.0
        events = [r for r in sink.records if r["event"] == "dist.degraded"]
        assert len(events) == 1
        assert events[0]["rank"] == 1 and events[0]["live_workers"] == 1

    def test_backoff_envelope_is_decorrelated_jitter(self):
        base, cap = 0.01, 0.5
        core = _core(
            world_size=1, max_restarts=50, base_delay=base, max_delay=cap
        )
        previous = base
        for _ in range(20):
            decision = core.on_death(0)
            assert decision.action == "restart"
            assert base <= decision.delay <= cap
            assert decision.delay <= max(cap, 3.0 * previous)
            previous = decision.delay


class TestPicklableError:
    def test_round_trippable_errors_pass_through(self):
        error = ValueError("bad shape")
        assert picklable_error(error) is error

    def test_unpicklable_error_substituted(self):
        # RetryBudgetExceeded's 3-arg __init__ breaks naive unpickling —
        # exactly the class a worker would plausibly ship home.
        error = RetryBudgetExceeded("site", 3, 1.5)
        substitute = picklable_error(error)
        assert isinstance(substitute, DistError)
        assert "RetryBudgetExceeded" in str(substitute)


# ----------------------------------------------------------------------
# WorkerPool: real processes, tiny tasks
# ----------------------------------------------------------------------
def _square(payload):
    return payload * payload


def _always_oserror(payload):
    raise OSError(f"disk on fire for {payload}")


def _always_valueerror(payload):
    raise ValueError("programming error")


def _pool(num_workers=2, **policy_kwargs):
    return WorkerPool(
        num_workers=num_workers,
        fn=policy_kwargs.pop("fn", _square),
        policy=RestartPolicy(base_delay=0.0, max_delay=0.0, **policy_kwargs),
        site="dist.task",
        sleep=NO_SLEEP,
    )


class TestWorkerPool:
    def test_happy_path_returns_results_in_task_order(self):
        with _pool() as pool:
            assert pool.run(list(range(7))) == [i * i for i in range(7)]
            assert pool.core.total_restarts == 0

    def test_dispatch_kill_requeues_and_restarts(self):
        retries = get_registry().counter("resilience.retries", site="dist.task")
        restarts = get_registry().counter("dist.worker_restarts")
        before = (retries.value, restarts.value)
        with chaos(FaultSpec("dist.task", kind="kill", times=1)) as plan:
            with _pool() as pool:
                assert pool.run([1, 2, 3, 4]) == [1, 4, 9, 16]
                assert pool.core.total_restarts == 1
            fires = plan.fires("dist.task")
        assert fires == 1
        assert retries.value - before[0] == fires
        assert restarts.value - before[1] == fires

    def test_dispatch_error_spec_is_a_transient_requeue(self):
        retries = get_registry().counter("resilience.retries", site="dist.task")
        before = retries.value
        with chaos(FaultSpec("dist.task", times=2)) as plan:
            with _pool() as pool:
                assert pool.run([5, 6]) == [25, 36]
                assert pool.core.total_restarts == 0  # nobody died
            assert plan.fires("dist.task") == 2
        assert retries.value - before == 2

    def test_fatal_worker_error_aborts_classified(self):
        with _pool(fn=_always_valueerror) as pool:
            with pytest.raises(DistError) as excinfo:
                pool.run([1])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_retryable_worker_error_exhausts_task_budget(self):
        policy = RetryPolicy(max_attempts=2, base_delay=0.0)
        with _pool(fn=_always_oserror, task_retry=policy) as pool:
            with pytest.raises(DistError) as excinfo:
                pool.run([1])
        assert "attempt" in str(excinfo.value)
        assert isinstance(excinfo.value.__cause__, OSError)

    def test_budget_exhaustion_degrades_then_survivor_finishes(self):
        with chaos(FaultSpec("dist.task", kind="kill", times=1)):
            with _pool(max_restarts=0) as pool:
                assert sorted(pool.run([2, 3, 4])) == [4, 9, 16]
                assert len(pool.core.removed) == 1
                assert len(pool.core.live) == 1

    def test_whole_fleet_gone_raises(self):
        with chaos(FaultSpec("dist.task", kind="kill", times=None)):
            with _pool(max_restarts=0, task_retry=RetryPolicy(max_attempts=10)) as pool:
                with pytest.raises(DistError) as excinfo:
                    pool.run([1, 2, 3])
        assert "no workers left" in str(excinfo.value)

    def test_workers_ship_span_records_home(self):
        with _pool() as pool:
            pool.run([1, 2])
        names = {record["name"] for record in pool.span_buffer}
        assert any(name.startswith("dist.pool.worker:") for name in names)
        assert any(name.startswith("dist.pool.task:") for name in names)
