"""Opt-in autograd op profiler for ``repro.nn.tensor``.

When enabled, every op listed in :data:`repro.nn.tensor.PROFILED_OPS` is
hooked at its dispatch point: the forward call is timed and counted, and
the backward closure the op registers on its output tensor is wrapped so
backward time is attributed to the op that created it.  Stats accumulate
in-process and are mirrored into the metrics registry as gauges
(``autograd.op.forward_calls{op=...}``, ``autograd.op.forward_ms{op=...}``,
and the ``backward_*`` twins) by :func:`op_stats`.

Timing is *inclusive*: composite ops (``mean`` calls ``sum`` and ``mul``)
record their own wall time and their primitives record theirs, so the
per-op numbers answer "where does time go through this call site", not a
disjoint partition.  Backward time lands on the innermost primitive that
registered the closure.

The profiler is strictly opt-in — nothing is patched at import time, so the
disabled-path cost is zero.  Usage::

    with profile_ops():
        loss = model(batch); loss.backward()
    for row in op_stats()[:10]:
        print(row)
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager

__all__ = [
    "enable_op_profiler",
    "disable_op_profiler",
    "profile_ops",
    "op_stats",
    "reset_op_stats",
    "is_op_profiler_enabled",
]

_lock = threading.Lock()
# op name -> [forward_calls, forward_seconds, backward_calls, backward_seconds]
_stats: dict[str, list[float]] = {}
_originals: dict[str, object] = {}
_enabled = False


def _record(op: str, phase_index: int, seconds: float) -> None:
    with _lock:
        row = _stats.get(op)
        if row is None:
            row = _stats[op] = [0, 0.0, 0, 0.0]
        row[phase_index] += 1
        row[phase_index + 1] += seconds


def _display_name(method_name: str) -> str:
    return method_name.strip("_")


def _wrap_forward(op: str, fn):
    from ..nn.tensor import Tensor

    def _hook_backward(result):
        if (
            isinstance(result, Tensor)
            and result._backward is not None
            and not getattr(result._backward, "_obs_profiled", False)
        ):
            inner = result._backward

            def profiled_backward(grad):
                t0 = time.perf_counter()
                inner(grad)
                _record(op, 2, time.perf_counter() - t0)

            profiled_backward._obs_profiled = True
            result._backward = profiled_backward

    def profiled(*args, **kwargs):
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        _record(op, 0, time.perf_counter() - start)
        # Fused kernels (e.g. lstm_cell_fused) return a tuple of outputs;
        # each output carries its own closure, all attributed to this op.
        if isinstance(out, tuple):
            for element in out:
                _hook_backward(element)
        else:
            _hook_backward(out)
        return out

    profiled._obs_profiled_op = op
    profiled._obs_original = fn
    return profiled


def is_op_profiler_enabled() -> bool:
    return _enabled


def enable_op_profiler() -> None:
    """Patch the profiling hook onto every op in ``PROFILED_OPS`` (idempotent)."""
    global _enabled
    from ..nn.tensor import install_op_wrappers

    with _lock:
        if _enabled:
            return
        _enabled = True
    _originals.update(
        install_op_wrappers(
            lambda name, fn: _wrap_forward(_display_name(name), fn)
        )
    )


def disable_op_profiler() -> None:
    """Restore the unpatched ops; accumulated stats are kept until reset."""
    global _enabled
    from ..nn.tensor import restore_ops

    with _lock:
        if not _enabled:
            return
        _enabled = False
    restore_ops(_originals)
    _originals.clear()


def reset_op_stats() -> None:
    with _lock:
        _stats.clear()


@contextmanager
def profile_ops(reset: bool = True):
    """Enable the profiler for a block; yields nothing, read :func:`op_stats`."""
    if reset:
        reset_op_stats()
    enable_op_profiler()
    try:
        yield
    finally:
        disable_op_profiler()


def op_stats(registry=None) -> list[dict]:
    """Per-op stats sorted by total (forward + backward) time, descending.

    Also mirrors every row into ``registry`` (the process-global one by
    default) as idempotent gauges, so a metrics snapshot carries the
    profile.
    """
    from .metrics import get_registry

    registry = registry if registry is not None else get_registry()
    with _lock:
        rows = {op: list(row) for op, row in _stats.items()}
    result = []
    for op, (f_calls, f_s, b_calls, b_s) in rows.items():
        result.append(
            {
                "op": op,
                "forward_calls": int(f_calls),
                "forward_ms": 1000.0 * f_s,
                "backward_calls": int(b_calls),
                "backward_ms": 1000.0 * b_s,
                "total_ms": 1000.0 * (f_s + b_s),
            }
        )
        registry.gauge("autograd.op.forward_calls", op=op).set(f_calls)
        registry.gauge("autograd.op.forward_ms", op=op).set(1000.0 * f_s)
        registry.gauge("autograd.op.backward_calls", op=op).set(b_calls)
        registry.gauge("autograd.op.backward_ms", op=op).set(1000.0 * b_s)
    result.sort(key=lambda r: r["total_ms"], reverse=True)
    return result
