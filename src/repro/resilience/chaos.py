"""Deterministic, seeded fault injection at named fault points.

Library code plants zero-cost markers::

    from ..resilience.chaos import faultpoint
    ...
    faultpoint("data.load")

With no plan installed, ``faultpoint`` is one global load and a ``None``
check (gated under 5% of per-batch train cost by
``benchmarks/bench_resilience_overhead.py``).  A test or chaos sweep arms
the markers with a :class:`ChaosPlan`::

    with chaos(FaultSpec("rerank.score.*", kind="error", times=2), seed=0):
        run_serving_sweep()

Four fault kinds:

- ``"error"`` — raise :class:`~repro.resilience.errors.InjectedFault`
  (or a custom exception type via ``FaultSpec.error``);
- ``"latency"`` — sleep ``latency_ms`` (the sleeper is injectable, so
  tests can fake clocks instead of waiting);
- ``"kill"`` — deliver ``SIGKILL``.  Fired through a plain
  :func:`faultpoint` the *current process* kills itself (the mode a dist
  worker arms to die mid-step); fired through :func:`faultpoint_signal`
  the spec is *returned* and the caller delivers the kill — the dist
  supervisor SIGKILLs the worker whose message it was processing, so the
  plan's ``fires()`` stays parent-side and auditable;
- ``"nan"`` — poison the *output of an autograd op*.  The spec's ``site``
  names an op from :data:`repro.nn.tensor.PROFILED_OPS` as ``op.<name>``
  (e.g. ``op.sigmoid``); installing the plan wraps the op-dispatch surface
  via :func:`repro.nn.tensor.install_op_wrappers` — the same hook the
  PR 4 numerical sanitizer uses, so a sanitized run traps the poison with
  the op name in hand.

Scheduling is deterministic: ``after`` skips the first N matching hits,
``times`` caps total fires, and sub-1.0 ``probability`` draws from a
generator seeded by the plan — two sweeps with the same seed inject the
same faults.  Every fire increments ``resilience.faults{site=,kind=}`` and
emits a ``chaos.fault`` run-log event before acting.

Fault-point map (kept in sync with DESIGN.md §8):

=====================  =====================================================
``data.load``          each dataset ``load_*`` in ``repro.data.io``
``data.save``          each dataset ``save_*`` in ``repro.data.io``
``train.epoch``        top of every training epoch (``core.trainer``)
``train.batch``        top of every training batch (``core.trainer``)
``checkpoint.save``    before each checkpoint write (``resilience.checkpoint``)
``rerank.score.<n>``   every ``Reranker.rerank`` entry, ``<n>`` = reranker
                       name (``rerank.base``; target with ``rerank.score.*``)
``eval.rerank``        start of test-set re-ranking (``eval.experiment``)
``eval.metrics``       start of metric computation (``eval.experiment``)
``dist.worker.step``   every data-parallel training step — in the worker
                       (top of the step; ``"kill"`` = worker suicide) and
                       in the parent (per grad message; ``"kill"`` =
                       SIGKILL that worker)
``dist.shard.write``   before each synthetic-shard archive write
``dist.sweep.cell``    each eval-sweep cell dispatch (``WorkerPool``)
                       and execution (worker)
``op.<name>``          autograd op outputs (``"nan"`` kind only)
=====================  =====================================================
"""

from __future__ import annotations

import fnmatch
import os
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .errors import InjectedFault

__all__ = [
    "FaultSpec",
    "ChaosPlan",
    "faultpoint",
    "faultpoint_signal",
    "install_chaos",
    "clear_chaos",
    "chaos",
    "chaos_active",
]


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``site`` is an ``fnmatch`` pattern over fault-point names (``"data.*"``
    matches loads and saves).  The spec fires on matching hits number
    ``after+1 .. after+times`` (each further gated by ``probability``);
    ``times=None`` never stops firing.
    """

    site: str
    kind: str = "error"  # "error" | "latency" | "nan" | "kill"
    probability: float = 1.0
    after: int = 0
    times: int | None = 1
    latency_ms: float = 0.0
    error: type[Exception] | None = None
    message: str = ""

    def __post_init__(self) -> None:
        if self.kind not in ("error", "latency", "nan", "kill"):
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError("probability must be in [0, 1]")
        if self.after < 0 or (self.times is not None and self.times < 0):
            raise ValueError("after/times must be non-negative")
        if self.kind == "nan" and not self.site.startswith("op."):
            raise ValueError(
                "nan faults poison autograd op outputs; site must be "
                f"'op.<name>' with <name> in PROFILED_OPS, got {self.site!r}"
            )


@dataclass
class _SpecState:
    spec: FaultSpec
    hits: int = 0
    fires: int = 0


class ChaosPlan:
    """A set of :class:`FaultSpec` armed over the process's fault points."""

    def __init__(
        self,
        specs: "list[FaultSpec] | tuple[FaultSpec, ...]",
        seed: int = 0,
        sleep=time.sleep,
    ) -> None:
        self._states = [_SpecState(spec) for spec in specs]
        self._rng = np.random.default_rng(seed)
        self._sleep = sleep
        self._lock = threading.Lock()
        self._op_originals: dict[str, object] | None = None

    @property
    def specs(self) -> list[FaultSpec]:
        return [state.spec for state in self._states]

    def fires(self, site_pattern: str = "*") -> int:
        """Total faults fired whose spec site matches ``site_pattern``."""
        return sum(
            state.fires
            for state in self._states
            if fnmatch.fnmatchcase(state.spec.site, site_pattern)
            or fnmatch.fnmatchcase(site_pattern, state.spec.site)
        )

    # ------------------------------------------------------------------
    # Fault-point dispatch
    # ------------------------------------------------------------------
    def visit(self, site: str):
        """Called by :func:`faultpoint`; may sleep or raise.

        Returns the matching fired :class:`FaultSpec` for the
        caller-delivered kinds — ``"nan"`` (the op wrapper applies the
        poison) and ``"kill"`` (the caller delivers the SIGKILL) — and
        ``None`` otherwise.
        """
        for state in self._states:
            spec = state.spec
            if not fnmatch.fnmatchcase(site, spec.site):
                continue
            with self._lock:
                state.hits += 1
                if state.hits <= spec.after:
                    continue
                if spec.times is not None and state.fires >= spec.times:
                    continue
                if spec.probability < 1.0 and self._rng.random() >= spec.probability:
                    continue
                state.fires += 1
            self._record(site, spec)
            if spec.kind == "latency":
                self._sleep(spec.latency_ms / 1000.0)
            elif spec.kind == "error":
                if spec.error is not None:
                    raise spec.error(spec.message or f"injected fault at {site!r}")
                raise InjectedFault(site, spec.message)
            else:  # "nan"/"kill": delivered by the caller
                return spec
        return None

    @staticmethod
    def _record(site: str, spec: FaultSpec) -> None:
        from ..obs.metrics import get_registry
        from ..obs.runlog import get_run_logger

        get_registry().counter("resilience.faults", site=site, kind=spec.kind).inc()
        logger = get_run_logger()
        if logger.active:
            logger.log("chaos.fault", site=site, kind=spec.kind, pattern=spec.site)

    # ------------------------------------------------------------------
    # NaN poisoning through the op-dispatch surface
    # ------------------------------------------------------------------
    def _has_nan_specs(self) -> bool:
        return any(state.spec.kind == "nan" for state in self._states)

    def _install_op_wrappers(self) -> None:
        from ..nn.tensor import Tensor, install_op_wrappers

        plan = self

        def make_wrapper(name: str, fn):
            site = f"op.{name}"

            def chaotic(*args, **kwargs):
                out = fn(*args, **kwargs)
                spec = plan.visit(site)
                if spec is not None:
                    for element in out if isinstance(out, tuple) else (out,):
                        if isinstance(element, Tensor) and element.data.size:
                            element.data.reshape(-1)[0] = np.nan
                            break
                return out

            return chaotic

        self._op_originals = install_op_wrappers(make_wrapper)

    def _restore_op_wrappers(self) -> None:
        if self._op_originals is not None:
            from ..nn.tensor import restore_ops

            restore_ops(self._op_originals)
            self._op_originals = None


_ACTIVE: ChaosPlan | None = None


def faultpoint(site: str) -> None:
    """Fault-injection marker; free when no chaos plan is installed.

    A ``"kill"`` spec firing here SIGKILLs the *current* process — the
    worker-suicide mode of the dist chaos matrix.  (``"nan"`` specs only
    fire through the op-wrapper surface, never a plain marker.)
    """
    plan = _ACTIVE
    if plan is not None:
        spec = plan.visit(site)
        if spec is not None and spec.kind == "kill":
            os.kill(os.getpid(), signal.SIGKILL)


def faultpoint_signal(site: str):
    """Like :func:`faultpoint`, but caller-delivered kinds are *returned*.

    ``"error"``/``"latency"`` specs still raise/sleep inside the call; a
    fired ``"kill"`` (or ``"nan"``) spec comes back to the caller, which
    decides how to deliver it — the dist supervisor SIGKILLs the worker
    the visited event belongs to.  Returns ``None`` when nothing fired.
    """
    plan = _ACTIVE
    if plan is not None:
        return plan.visit(site)
    return None


def chaos_active() -> bool:
    return _ACTIVE is not None


def install_chaos(plan: ChaosPlan) -> ChaosPlan:
    """Arm ``plan`` process-wide (replacing any previous plan)."""
    global _ACTIVE
    clear_chaos()
    if plan._has_nan_specs():
        plan._install_op_wrappers()
    _ACTIVE = plan
    return plan


def clear_chaos() -> None:
    """Disarm fault injection and unwrap any poisoned ops (idempotent)."""
    global _ACTIVE
    plan, _ACTIVE = _ACTIVE, None
    if plan is not None:
        plan._restore_op_wrappers()


@contextmanager
def chaos(*specs: FaultSpec, seed: int = 0, sleep=time.sleep):
    """Arm a plan for a block; yields it so tests can inspect fire counts.

    Install order matters for ``"nan"`` faults composed with the numerical
    sanitizer: arm chaos first, then ``sanitize()``, so the sanitizer's
    wrapper observes the poisoned output.
    """
    plan = ChaosPlan(list(specs), seed=seed, sleep=sleep)
    install_chaos(plan)
    try:
        yield plan
    finally:
        clear_chaos()
