"""Graceful-degradation serving: deadlines, circuit breaking, fallbacks.

Production re-rankers (PRM at Taobao, Huawei's live diversified re-ranker)
run behind strict latency budgets: when the neural model is slow, broken,
or numerically unstable, the surrounding system must still answer every
request with *some* valid slate.  :class:`ResilientReranker` wraps any
:class:`~repro.rerank.base.Reranker` with exactly that contract:

- **deadline** — a wall-clock budget applied to each stage; a stage whose
  answer arrives after the budget counts as a failure and the next stage
  serves (Python can't preempt a running call, so the overrun is detected
  on return — the degraded answer is deterministic either way).  Each
  fallback stage gets a fresh budget: the cheap stages exist precisely to
  answer after the primary has burned its slice, so the end-to-end tail
  is bounded by ``deadline_ms`` per stage, and repeated primary overruns
  open the breaker so later requests skip the slow stage entirely;
- **circuit breaker** — after ``failure_threshold`` consecutive primary
  failures the breaker *opens* and requests skip straight to the fallback
  (no doomed primary calls); after ``recovery_seconds`` it goes
  *half-open* and lets one probe through, closing again on success;
- **fallback chain** — RAPID → MMR → initial-ranking passthrough by
  default.  The final passthrough cannot fail, so ``rerank`` always
  returns a valid permutation.

Every stage's answer is validated (shape + per-row permutation) before
being served, so a buggy model returning garbage degrades instead of
propagating.  Telemetry: ``resilience.requests{reranker=}`` /
``resilience.degraded{reranker=}`` /
``resilience.fallbacks{reranker=,to=,reason=}`` counters, the
``resilience.request_ms{reranker=}`` end-to-end latency histogram, the
``resilience.breaker_state{breaker=}`` gauge (0 closed, 1 half-open,
2 open), and ``degrade.fallback`` / ``breaker.transition`` run-log events.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs import get_registry, get_run_logger
from ..rerank.base import Reranker
from .errors import CircuitOpenError, DeadlineExceeded

__all__ = [
    "CircuitBreaker",
    "ResilientReranker",
    "default_fallback_chain",
    "BREAKER_STATE_CODES",
]

BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}


class CircuitBreaker:
    """Classic closed → open → half-open breaker over consecutive failures.

    The clock is injectable (``clock=time.monotonic``) so the state
    machine is unit-testable without sleeping.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        recovery_seconds: float = 30.0,
        half_open_successes: int = 1,
        name: str = "primary",
        clock=time.monotonic,
    ) -> None:
        if failure_threshold < 1 or half_open_successes < 1:
            raise ValueError("thresholds must be >= 1")
        self.failure_threshold = failure_threshold
        self.recovery_seconds = recovery_seconds
        self.half_open_successes = half_open_successes
        self.name = name
        self._clock = clock
        self._state = "closed"
        self._consecutive_failures = 0
        self._half_open_successes_seen = 0
        self._opened_at = 0.0
        self._publish()

    @property
    def state(self) -> str:
        """Current state, applying the open → half-open timeout."""
        if (
            self._state == "open"
            and self._clock() - self._opened_at >= self.recovery_seconds
        ):
            self._transition("half_open")
        return self._state

    def allow(self) -> bool:
        """May the guarded call proceed right now?"""
        return self.state != "open"

    def record_success(self) -> None:
        self._consecutive_failures = 0
        if self.state == "half_open":
            self._half_open_successes_seen += 1
            if self._half_open_successes_seen >= self.half_open_successes:
                self._transition("closed")

    def record_failure(self) -> None:
        state = self.state
        if state == "half_open":
            self._transition("open")
            return
        self._consecutive_failures += 1
        if state == "closed" and self._consecutive_failures >= self.failure_threshold:
            self._transition("open")

    def _transition(self, new_state: str) -> None:
        old_state, self._state = self._state, new_state
        if new_state == "open":
            self._opened_at = self._clock()
        if new_state == "half_open":
            self._half_open_successes_seen = 0
        if new_state == "closed":
            self._consecutive_failures = 0
        self._publish()
        logger = get_run_logger()
        if logger.active:
            logger.log(
                "breaker.transition",
                breaker=self.name,
                old=old_state,
                new=new_state,
            )

    def _publish(self) -> None:
        get_registry().gauge("resilience.breaker_state", breaker=self.name).set(
            BREAKER_STATE_CODES[self._state]
        )


def default_fallback_chain(tradeoff: float = 0.8) -> "list[Reranker]":
    """The serving default: greedy MMR, then initial-order passthrough.

    (The passthrough is implicit — :class:`ResilientReranker` always
    appends it — so this returns just the MMR stage.)
    """
    from ..rerank.mmr import MMRReranker  # deferred: avoids import cycle

    return [MMRReranker(tradeoff=tradeoff)]


class _Passthrough(Reranker):
    """Terminal fallback: serve the initial ranking unchanged."""

    name = "passthrough"

    def rerank(self, batch) -> np.ndarray:
        return np.tile(np.arange(batch.list_length), (batch.batch_size, 1))


class ResilientReranker(Reranker):
    """A re-ranker that always answers: deadline + breaker + fallbacks.

    Parameters
    ----------
    primary:
        The model being protected (e.g. a trained ``RapidReranker``).
    fallbacks:
        Ordered degraded stages tried after the primary; defaults to
        :func:`default_fallback_chain`.  An initial-order passthrough is
        always appended as the unfailable last resort.
    deadline_ms:
        Per-stage wall-clock budget; ``None`` disables deadline
        enforcement.
    breaker:
        Circuit breaker guarding the primary (a default one is built when
        omitted).
    slo_monitor:
        Optional :class:`~repro.obs.slo.SLOMonitor` (see
        :func:`~repro.obs.slo.serving_slo`).  When present, every request
        records its end-to-end latency — with "degraded to a fallback"
        counted as a bad event — and the monitor's burn rates are
        re-evaluated per request, publishing ``obs.slo.*`` gauges and
        alert events.
    """

    def __init__(
        self,
        primary: Reranker,
        fallbacks: "list[Reranker] | None" = None,
        deadline_ms: float | None = 50.0,
        breaker: CircuitBreaker | None = None,
        clock=time.perf_counter,
        slo_monitor=None,
    ) -> None:
        self.primary = primary
        primary_name = getattr(primary, "name", None) or type(primary).__name__
        self.name = f"resilient-{primary_name}"
        self.fallbacks = (
            list(fallbacks) if fallbacks is not None else default_fallback_chain()
        )
        self.deadline_ms = deadline_ms
        self.breaker = (
            breaker if breaker is not None else CircuitBreaker(name=primary_name)
        )
        self._clock = clock
        self.slo_monitor = slo_monitor
        # Whether the most recent ``rerank`` was answered by a fallback
        # stage; the serving cache stores only the primary's slates.
        self.last_degraded = False
        self.requires_training = getattr(primary, "requires_training", False) or any(
            getattr(f, "requires_training", False) for f in self.fallbacks
        )

    def fit(self, requests, catalog, population, histories) -> "ResilientReranker":
        """Fit the primary and any trainable fallbacks."""
        for stage in [self.primary, *self.fallbacks]:
            if getattr(stage, "requires_training", False):
                stage.fit(requests, catalog, population, histories)
        return self

    def score_batch(self, batch) -> np.ndarray:
        return self.primary.score_batch(batch)

    def warmup(self, batch) -> None:
        """Run one throwaway rerank per stage (best effort).

        First calls pay one-time costs (numpy and BLAS buffer set-up, lazy
        imports, cold caches); paying them here keeps them out of the
        first deadline-bounded request.
        """
        for stage in [self.primary, *self.fallbacks]:
            try:
                stage.rerank(batch)
            except Exception:  # noqa: BLE001 - warmup must never fail serving
                continue

    def swap_primary(self, new_primary: Reranker) -> Reranker:
        """Swap the protected model mid-flight; returns the old primary.

        Serving uses this for zero-downtime model rollout.  Inference casts
        parameters per call, so the new primary serves its current weights
        even if they were updated in place.  The wrapper's name follows
        the new primary (fresh metric series); the breaker keeps its state
        — an open breaker still half-open-probes the new model on schedule
        rather than trusting it blindly.
        """
        old = self.primary
        self.primary = new_primary
        primary_name = (
            getattr(new_primary, "name", None) or type(new_primary).__name__
        )
        self.name = f"resilient-{primary_name}"
        get_registry().counter(
            "resilience.primary_swaps", reranker=self.name
        ).inc()
        logger = get_run_logger()
        if logger.active:
            logger.log(
                "degrade.swap_primary",
                reranker=self.name,
                old=getattr(old, "name", None) or type(old).__name__,
                new=primary_name,
            )
        return old

    # ------------------------------------------------------------------
    # Serving path
    # ------------------------------------------------------------------
    def rerank(self, batch) -> np.ndarray:
        request_start = self._clock()
        result, degraded = self._serve(batch)
        self.last_degraded = degraded
        elapsed_ms = 1000.0 * (self._clock() - request_start)
        registry = get_registry()
        registry.histogram("resilience.request_ms", reranker=self.name).observe(
            elapsed_ms
        )
        if degraded:
            registry.counter("resilience.degraded", reranker=self.name).inc()
        if self.slo_monitor is not None:
            self.slo_monitor.record(latency_ms=elapsed_ms, error=degraded)
            self.slo_monitor.evaluate()
        return result

    def _serve(self, batch) -> "tuple[np.ndarray, bool]":
        """The stage cascade; returns the slate plus whether it degraded."""
        registry = get_registry()
        registry.counter("resilience.requests", reranker=self.name).inc()
        stages = [self.primary, *self.fallbacks, _Passthrough()]
        failure: "tuple[str, str] | None" = None  # (stage name, reason)
        for index, stage in enumerate(stages):
            stage_name = getattr(stage, "name", None) or type(stage).__name__
            is_primary = index == 0
            if failure is not None:
                registry.counter(
                    "resilience.fallbacks",
                    reranker=self.name,
                    to=stage_name,
                    reason=failure[1],
                ).inc()
                logger = get_run_logger()
                if logger.active:
                    logger.log(
                        "degrade.fallback",
                        reranker=self.name,
                        failed_stage=failure[0],
                        next_stage=stage_name,
                        reason=failure[1],
                    )
                failure = None
            if is_primary and not self.breaker.allow():
                failure = (stage_name, "breaker_open")
                continue
            try:
                started = self._clock()
                result = stage.rerank(batch)
                self._check_deadline(stage_name, started)
                self._validate(stage_name, result, batch)
            except Exception as error:  # noqa: BLE001 - degradation boundary
                if is_primary:
                    self.breaker.record_failure()
                failure = (stage_name, type(error).__name__)
                continue
            if is_primary:
                self.breaker.record_success()
            return result, not is_primary
        raise AssertionError("unreachable: passthrough cannot fail")

    def _check_deadline(self, stage_name: str, started: float) -> None:
        if self.deadline_ms is None:
            return
        elapsed_ms = 1000.0 * (self._clock() - started)
        if elapsed_ms > self.deadline_ms:
            raise DeadlineExceeded(stage_name, self.deadline_ms, elapsed_ms)

    @staticmethod
    def _validate(stage_name: str, result, batch) -> None:
        result = np.asarray(result)
        expected = (batch.batch_size, batch.list_length)
        if result.shape != expected:
            raise ValueError(
                f"{stage_name} returned shape {result.shape}, expected {expected}"
            )
        reference = np.arange(batch.list_length)
        if not (np.sort(result, axis=1) == reference).all():
            raise ValueError(f"{stage_name} returned a non-permutation slate")
