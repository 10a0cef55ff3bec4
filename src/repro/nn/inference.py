"""Tape-free float32 inference fast path for ``repro.nn``.

At RAPID's serving shapes (one user history through the Bi-LSTM and the
per-topic encoders, a few hundred candidates) Python dispatch and autograd
node allocation — not FLOPs — dominate rerank latency.  The op-table
refactor in :mod:`repro.nn.tensor` already skips closure creation when no
tape is active; this module goes further and removes :class:`Tensor` from
the serving path entirely.  ``Module.infer`` runs a module's forward pass
on raw ndarrays in the inference dtype (float32 by default), with weights
cast — and, for the recurrent cells, gate-reordered — exactly once per
parameter load and cached against the parameter array's identity.

Serving always takes this path.  Two test-facing selectors remain:

- :func:`use_infer` (``False``) restores the float64 tape path
  bit-identically for a block, everywhere the serving layer dispatches —
  the reference the golden slates and the benchmark's drift check compare
  against;
- ``REPRO_NN_INFER_DTYPE=float64`` keeps the tape-free dispatch but runs it
  in double precision (useful for isolating dtype drift from path drift).

Parity is enforced by the differential oracle (``repro.testing.oracle``
replays every fused-kernel case on this path with explicit tolerance/ULP
budgets), the golden-slate suite (identical item ids fast vs tape for every
reranker), and the autograd fuzzer (tape vs no-tape forward equality).

Weight-cast cache contract: optimizer steps and ``load_state_dict`` rebind
``param.data`` to a fresh array (they never mutate in place), so caches are
keyed on the identity of the source arrays and invalidate automatically on
the next load.  Code that mutates ``param.data`` in place must call
:func:`invalidate_caches` afterwards.

Profiling: when the ``repro.obs`` op profiler is enabled it installs
:data:`_PROFILE_HOOK`; the named kernels below then report wall time under
``dispatch=infer`` so ``python -m repro.obs.report`` can attribute serving
time to this path.  Disabled cost is a single module-global ``None`` check
per kernel call (gated by ``benchmarks/bench_obs_overhead.py``).
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "infer_enabled",
    "use_infer",
    "infer_dtype",
    "cached_weights",
    "invalidate_caches",
    "sigmoid_nd",
    "softmax_nd",
    "log_softmax_nd",
    "masked_softmax_nd",
    "relu_nd",
    "layer_norm_nd",
    "linear_nd",
    "lstm_scan_infer",
    "gru_scan_infer",
    "lstm_infer_weights",
    "gru_infer_weights",
    "INFER_CASES",
    "register_infer_case",
]

# ----------------------------------------------------------------------
# Tape-path selector for tests: use_infer(False) restores the autograd tape
# path everywhere the serving layer dispatches.
# ----------------------------------------------------------------------

_INFER = True


def infer_enabled() -> bool:
    """Whether serving code should use the tape-free inference path."""
    return _INFER


@contextmanager
def use_infer(value: bool):
    """Temporarily force the inference (or tape) path within a block."""
    global _INFER
    previous, _INFER = _INFER, value
    try:
        yield
    finally:
        _INFER = previous


_DTYPE_MEMO: dict[str, np.dtype] = {}


def infer_dtype() -> np.dtype:
    """Compute dtype of the inference path (``REPRO_NN_INFER_DTYPE``).

    The env var is re-read every call (tests monkeypatch it); only the
    string -> dtype construction is memoized — it shows up in serving
    profiles via the per-layer weight-cache checks.
    """
    name = os.environ.get("REPRO_NN_INFER_DTYPE", "float32")
    dtype = _DTYPE_MEMO.get(name)
    if dtype is None:
        dtype = _DTYPE_MEMO.setdefault(name, np.dtype(name))
    return dtype


# ----------------------------------------------------------------------
# Per-module weight-cast cache.
#
# A cache entry is keyed on the *identity* of the source parameter arrays
# plus the inference dtype: optimizers and load_state_dict rebind
# ``param.data`` to fresh arrays, so an identity mismatch is exactly "the
# weights changed".  Entries live in the owning module's __dict__ (modules
# are plain-attribute objects; Parameters/Modules are intercepted by
# __setattr__, tuples are not).
# ----------------------------------------------------------------------

_CACHE_PREFIX = "_infer_cache_"


def cached_weights(module, key: str, params: Sequence, build: Callable):
    """Return ``build(dtype)`` cached on ``module`` until weights rebind.

    ``params`` are the Tensors/Parameters the value derives from;
    ``build(dtype)`` is invoked only when no entry exists, the inference
    dtype changed, or any source array was rebound.
    """
    attr = _CACHE_PREFIX + key
    bases = tuple(p.data for p in params)
    dtype = infer_dtype()
    entry = module.__dict__.get(attr)
    if (
        entry is not None
        and entry[1] == dtype
        and len(entry[0]) == len(bases)
        and all(a is b for a, b in zip(entry[0], bases))
    ):
        return entry[2]
    value = build(dtype)
    module.__dict__[attr] = (bases, dtype, value)
    return value


def invalidate_caches(module) -> None:
    """Drop every cached weight cast below ``module`` (recursive).

    Only needed after *in-place* mutation of ``param.data``; rebinding
    invalidates automatically.
    """
    for key in [k for k in module.__dict__ if k.startswith(_CACHE_PREFIX)]:
        del module.__dict__[key]
    for child in module.children():
        invalidate_caches(child)


# ----------------------------------------------------------------------
# Op-profiler hook.  ``repro.obs.autograd`` installs/clears this when the
# op profiler toggles; kernels report (name, seconds) so the report can
# render a ``dispatch=infer`` share line.  Disabled residue: one global
# ``None`` check per kernel call.
# ----------------------------------------------------------------------

_PROFILE_HOOK: Callable[[str, float], None] | None = None


def _profiled(fn: Callable) -> Callable:
    name = fn.__name__

    def wrapper(*args, **kwargs):
        hook = _PROFILE_HOOK
        if hook is None:
            return fn(*args, **kwargs)
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        hook(name, time.perf_counter() - start)
        return out

    wrapper.__name__ = name
    wrapper.__doc__ = fn.__doc__
    wrapper.__wrapped__ = fn
    return wrapper


# ----------------------------------------------------------------------
# ndarray kernels.  Numerics mirror the Tensor ops (same stable single-exp
# sigmoid, same max-shifted softmax) so fast-vs-tape drift is pure dtype
# rounding, bounded by the differential oracle.
# ----------------------------------------------------------------------


def sigmoid_nd(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic on a raw array (mirrors Tensor.sigmoid)."""
    decay = np.abs(x)
    np.negative(decay, out=decay)
    np.exp(decay, out=decay)
    out = np.where(x >= 0, x.dtype.type(1.0), decay)
    decay += x.dtype.type(1.0)
    np.divide(out, decay, out=out)
    return out


def _sigmoid_inplace(x: np.ndarray) -> None:
    """In-place logistic ``1 / (1 + exp(-x))`` — four allocation-free ufuncs.

    The direct form trades the stable branch of :func:`sigmoid_nd` for two
    fewer ufunc calls and zero temporaries; at serving shapes the scan's
    per-step arrays are tiny, so call count — not FLOPs — is the cost.
    Overflow for strongly negative inputs is benign (``exp -> inf`` then
    ``1/inf -> 0``, the exact saturation value); callers wrap the loop in
    ``np.errstate(over="ignore")``.  Agreement with the stable form is a
    couple of ULPs, covered by the differential-oracle budgets.
    """
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += x.dtype.type(1.0)
    np.reciprocal(x, out=x)


def relu_nd(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, x.dtype.type(0.0))


def softmax_nd(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def log_softmax_nd(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    shifted -= log_z
    return shifted


def masked_softmax_nd(
    x: np.ndarray, mask: np.ndarray, axis: int = -1
) -> np.ndarray:
    """Softmax with masked positions zeroed (mirrors functional.masked_softmax)."""
    mask = np.broadcast_to(np.asarray(mask, dtype=bool), x.shape)
    neg = np.where(mask, x.dtype.type(0.0), x.dtype.type(-1e30))
    out = softmax_nd(x + neg, axis=axis)
    any_valid = mask.any(axis=axis, keepdims=True)
    out *= any_valid
    return out


@_profiled
def layer_norm_nd(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float
) -> np.ndarray:
    mean = x.mean(axis=-1, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=-1, keepdims=True)
    var += x.dtype.type(eps)
    centered *= var ** x.dtype.type(-0.5)
    centered *= gamma
    centered += beta
    return centered


@_profiled
def linear_nd(
    x: np.ndarray, weight_t: np.ndarray, bias: np.ndarray | None
) -> np.ndarray:
    out = x @ weight_t
    if bias is not None:
        out += bias
    return out


# ----------------------------------------------------------------------
# Recurrent scan kernels.
#
# The LSTM weights are reordered once at cast time from the training
# packing [input, forget, cell, output] to [input, forget, output, cell],
# making the three sigmoid gates one contiguous block — the per-step
# ``np.concatenate`` of the tape kernels disappears.  GRU gates
# [reset, update, new] already have their sigmoid pair contiguous.
#
# Both scans accept arbitrary leading batch dimensions: a Bi-LSTM stacks
# its two directions into a (2, B, T, 4H) input with (2, H, 4H) weights
# and runs ONE scan whose per-step recurrent matmul batches over the
# direction axis — halving the sequential Python loop, the dominant cost
# at serving shapes.  (When no mask is in play, BiLSTM.infer goes further
# and packs both directions into the *hidden* axis with a block-diagonal
# recurrent matrix, turning the per-step matmul 2-D; see
# layers/recurrent.py.)  Inside the loops the sigmoid is the direct
# in-place form (:func:`_sigmoid_inplace`), not the stable branch of
# :func:`sigmoid_nd` — a couple of ULPs apart, bounded by the oracle.
# ----------------------------------------------------------------------


def _lstm_gate_order(hidden: int) -> np.ndarray:
    """Index permutation [i, f, g, o] -> [i, f, o, g] on a 4H gate axis."""
    block = np.arange(hidden)
    return np.concatenate(
        [block, hidden + block, 3 * hidden + block, 2 * hidden + block]
    )


def lstm_infer_weights(cell) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w_ih^T, bias, w_hh^T) cast to the inference dtype, gates reordered.

    Cached on ``cell`` (an :class:`~repro.nn.layers.recurrent.LSTMCell`)
    until its parameters are rebound.
    """

    def build(dtype):
        perm = _lstm_gate_order(cell.hidden_size)
        w_ih_t = np.ascontiguousarray(cell.w_ih.data[perm].T, dtype=dtype)
        w_hh_t = np.ascontiguousarray(cell.w_hh.data[perm].T, dtype=dtype)
        bias = np.ascontiguousarray(cell.bias.data[perm], dtype=dtype)
        return w_ih_t, bias, w_hh_t

    return cached_weights(
        cell, "lstm", (cell.w_ih, cell.w_hh, cell.bias), build
    )


def gru_infer_weights(cell) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(w_ih^T, bias, w_hh^T) cast to the inference dtype ([r, u, n] kept)."""

    def build(dtype):
        w_ih_t = np.ascontiguousarray(cell.w_ih.data.T, dtype=dtype)
        w_hh_t = np.ascontiguousarray(cell.w_hh.data.T, dtype=dtype)
        bias = np.ascontiguousarray(cell.bias.data, dtype=dtype)
        return w_ih_t, bias, w_hh_t

    return cached_weights(
        cell, "gru", (cell.w_ih, cell.w_hh, cell.bias), build
    )


def _time_major(x: np.ndarray) -> np.ndarray:
    """(..., T, D) -> contiguous (T, ..., D) so per-step slices are cheap."""
    return np.ascontiguousarray(np.moveaxis(x, -2, 0))


def _effective_mask(mask: np.ndarray | None) -> np.ndarray | None:
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool)
    # Fully-valid masks (the common serving case: fixed-length candidate
    # lists) skip the per-step blend entirely.
    if mask.all():
        return None
    return mask


@_profiled
def lstm_scan_infer(
    gi: np.ndarray, w_hh_t: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Inference LSTM scan on raw arrays (zero initial state).

    ``gi`` is (..., T, 4H) input pre-activations with gates packed
    [input, forget, output, cell] (see :func:`lstm_infer_weights`);
    ``w_hh_t`` is (..., H, 4H) so the recurrent matmul broadcasts over any
    leading direction/batch axes.  Returns (..., T, H) hidden states
    (post-mask; padded steps carry the previous state).
    """
    hs = gi.shape[-1] // 4
    lead = gi.shape[:-2]
    steps = gi.shape[-2]
    gi_t = _time_major(gi)
    mask = _effective_mask(mask)
    mask_t = None if mask is None else np.moveaxis(mask, -1, 0)
    dt = gi.dtype
    h: np.ndarray = np.zeros(lead + (hs,), dtype=dt)
    c = np.zeros(lead + (hs,), dtype=dt)
    out = np.empty((steps,) + lead + (hs,), dtype=dt)
    # Scratch and gate views are bound once; both loops below allocate
    # nothing — every ufunc writes a reused buffer, and the new hidden
    # state lands directly in its ``out[t]`` slot (unmasked) or a swap
    # buffer (masked).  At serving shapes the per-step arrays are tiny,
    # so allocator traffic and ufunc call count — not FLOPs — set the
    # scan's cost.
    z = np.empty(lead + (4 * hs,), dtype=dt)
    sig = z[..., : 3 * hs]
    gate_i = z[..., :hs]
    gate_f = z[..., hs : 2 * hs]
    gate_o = z[..., 2 * hs : 3 * hs]
    gate_g = z[..., 3 * hs :]
    g = np.empty(lead + (hs,), dtype=dt)
    # The loop body is the whole serving cost at T=200: ufunc lookups are
    # hoisted to locals, the sigmoid is inlined (see _sigmoid_inplace for
    # the form and the overflow note), and zip() hands out the per-step
    # views without integer indexing.
    mm, neg, exp, rec, tanh = np.matmul, np.negative, np.exp, np.reciprocal, np.tanh
    one = dt.type(1.0)
    with np.errstate(over="ignore"):  # see _sigmoid_inplace
        if mask_t is None:
            for o, a in zip(out, gi_t):
                mm(h, w_hh_t, out=z)
                z += a
                neg(sig, out=sig)
                exp(sig, out=sig)
                sig += one
                rec(sig, out=sig)
                tanh(gate_g, out=g)
                c *= gate_f
                g *= gate_i
                c += g
                h = o
                tanh(c, out=h)
                h *= gate_o
        else:
            # Padded steps carry the previous state: compute into swap
            # buffers, then copy the previous h/c back over masked rows
            # (np.copyto with where= is np.where without the allocation).
            nk_t = ~mask_t
            hb = np.empty(lead + (hs,), dtype=dt)
            cb = np.empty(lead + (hs,), dtype=dt)
            for o, a, skip in zip(out, gi_t, nk_t):
                mm(h, w_hh_t, out=z)
                z += a
                neg(sig, out=sig)
                exp(sig, out=sig)
                sig += one
                rec(sig, out=sig)
                tanh(gate_g, out=g)
                np.multiply(gate_f, c, out=cb)
                g *= gate_i
                cb += g
                tanh(cb, out=hb)
                hb *= gate_o
                skip = skip[..., None]
                np.copyto(hb, h, where=skip)
                np.copyto(cb, c, where=skip)
                o[...] = hb
                h, hb = hb, h
                c, cb = cb, c
    return np.moveaxis(out, 0, -2)


@_profiled
def gru_scan_infer(
    gi: np.ndarray, w_hh_t: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Inference GRU scan on raw arrays (zero initial state).

    ``gi`` is (..., T, 3H) input pre-activations packed [reset, update,
    new]; ``w_hh_t`` is (..., H, 3H).  Returns (..., T, H).
    """
    hs = gi.shape[-1] // 3
    lead = gi.shape[:-2]
    steps = gi.shape[-2]
    gi_t = _time_major(gi)
    mask = _effective_mask(mask)
    mask_t = None if mask is None else np.moveaxis(mask, -1, 0)
    dt = gi.dtype
    h: np.ndarray = np.zeros(lead + (hs,), dtype=dt)
    out = np.empty((steps,) + lead + (hs,), dtype=dt)
    one = dt.type(1.0)
    # Allocation-free loop buffers, mirroring lstm_scan_infer.
    gh = np.empty(lead + (3 * hs,), dtype=dt)
    ru = np.empty(lead + (2 * hs,), dtype=dt)
    r = ru[..., :hs]
    u = ru[..., hs:]
    n = np.empty(lead + (hs,), dtype=dt)
    gh_ru = gh[..., : 2 * hs]
    gh_n = gh[..., 2 * hs :]
    # Same loop treatment as lstm_scan_infer: local ufuncs, inlined
    # sigmoid, zip-provided per-step views.
    mm, neg, exp, rec, tanh = np.matmul, np.negative, np.exp, np.reciprocal, np.tanh
    with np.errstate(over="ignore"):  # see _sigmoid_inplace
        if mask_t is None:
            for o, a in zip(out, gi_t):
                mm(h, w_hh_t, out=gh)
                np.add(a[..., : 2 * hs], gh_ru, out=ru)
                neg(ru, out=ru)
                exp(ru, out=ru)
                ru += one
                rec(ru, out=ru)
                np.multiply(r, gh_n, out=n)
                n += a[..., 2 * hs :]
                tanh(n, out=n)
                np.subtract(one, u, out=r)  # r is dead past n; reuse as 1-u
                n *= r
                h_prev = h
                h = o
                np.multiply(u, h_prev, out=h)
                h += n
        else:
            nk_t = ~mask_t
            hb = np.empty(lead + (hs,), dtype=dt)
            for o, a, skip in zip(out, gi_t, nk_t):
                mm(h, w_hh_t, out=gh)
                np.add(a[..., : 2 * hs], gh_ru, out=ru)
                neg(ru, out=ru)
                exp(ru, out=ru)
                ru += one
                rec(ru, out=ru)
                np.multiply(r, gh_n, out=n)
                n += a[..., 2 * hs :]
                tanh(n, out=n)
                np.subtract(one, u, out=r)
                n *= r
                np.multiply(u, h, out=hb)
                hb += n
                np.copyto(hb, h, where=skip[..., None])
                o[...] = hb
                h, hb = hb, h
    return np.moveaxis(out, 0, -2)


# ----------------------------------------------------------------------
# Differential-oracle twin cases.
#
# Mirrors ``repro.nn.kernels.ORACLE_CASES``: every fused kernel registers
# an inference twin here so ``repro.testing.oracle`` can replay the
# tape-free path against the float64 tape reference with explicit
# tolerance / ULP budgets (the budgets live in the oracle, the cases
# here).  ``build(rng)`` returns ``(reference_fn, infer_fn, arrays,
# input_names)``: ``reference_fn`` consumes float64 arrays through the
# tape path, ``infer_fn`` consumes arrays pre-cast to the inference
# dtype through the production kernels above.
# ----------------------------------------------------------------------

INFER_CASES: dict[str, object] = {}


def register_infer_case(name: str, build) -> None:
    """Register the inference-twin differential case for a kernel."""
    INFER_CASES[name] = build


def _build_lstm_cell_infer_case(rng):
    from .tensor import Tensor, no_grad

    batch, hidden = 3, 4
    gates = rng.normal(size=(batch, 4 * hidden)) * 0.8
    mask = rng.random(batch) < 0.75
    mask[0] = True

    def reference(gates_a):
        with no_grad():
            zero = Tensor(np.zeros((batch, hidden)))
            h_new, _ = Tensor.lstm_cell_fused(Tensor(gates_a), zero, zero, mask)
        return h_new.data

    def fast(gates_a):
        # The production cell body lives inside the scan: a T=1 scan with
        # zero recurrent weights replays it (zero initial state).
        perm = _lstm_gate_order(hidden)
        gi = np.ascontiguousarray(gates_a[:, None, perm])
        w_hh_t = np.zeros((hidden, 4 * hidden), dtype=gi.dtype)
        return lstm_scan_infer(gi, w_hh_t, mask[:, None])[:, 0, :]

    return reference, fast, (gates,), ("gates",)


def _build_gru_cell_infer_case(rng):
    from .tensor import Tensor, no_grad

    batch, hidden = 3, 4
    gi = rng.normal(size=(batch, 3 * hidden)) * 0.8
    mask = rng.random(batch) < 0.75
    mask[0] = True

    def reference(gi_a):
        with no_grad():
            h = Tensor(np.zeros((batch, hidden)))
            gh = Tensor(np.zeros((batch, 3 * hidden)))
            out = Tensor.gru_cell_fused(Tensor(gi_a), gh, h, mask)
        return out.data

    def fast(gi_a):
        w_hh_t = np.zeros((hidden, 3 * hidden), dtype=gi_a.dtype)
        return gru_scan_infer(gi_a[:, None, :], w_hh_t, mask[:, None])[:, 0, :]

    return reference, fast, (gi,), ("gi",)


def _build_lstm_scan_infer_case(rng):
    from .tensor import Tensor, no_grad

    batch, time_steps, hidden = 2, 5, 3
    gi = rng.normal(size=(batch, time_steps, 4 * hidden)) * 0.8
    w_hh = rng.normal(size=(4 * hidden, hidden)) * 0.4
    mask = rng.random((batch, time_steps)) < 0.8
    mask[:, 0] = True

    def reference(gi_a, w_a):
        with no_grad():
            out = Tensor.lstm_scan_fused(Tensor(gi_a), Tensor(w_a), mask)
        return out.data

    def fast(gi_a, w_a):
        perm = _lstm_gate_order(hidden)
        return lstm_scan_infer(
            np.ascontiguousarray(gi_a[..., perm]),
            np.ascontiguousarray(w_a[perm].T),
            mask,
        )

    return reference, fast, (gi, w_hh), ("gi", "w_hh")


def _build_gru_scan_infer_case(rng):
    from .tensor import Tensor, no_grad

    batch, time_steps, hidden = 2, 5, 3
    gi = rng.normal(size=(batch, time_steps, 3 * hidden)) * 0.8
    w_hh = rng.normal(size=(3 * hidden, hidden)) * 0.4
    mask = rng.random((batch, time_steps)) < 0.8
    mask[:, 0] = True

    def reference(gi_a, w_a):
        with no_grad():
            out = Tensor.gru_scan_fused(Tensor(gi_a), Tensor(w_a), mask)
        return out.data

    def fast(gi_a, w_a):
        return gru_scan_infer(gi_a, np.ascontiguousarray(w_a.T), mask)

    return reference, fast, (gi, w_hh), ("gi", "w_hh")


def _build_sigmoid_infer_case(rng):
    from .tensor import Tensor, no_grad

    x = rng.normal(size=(4, 7)) * 3.0

    def reference(x_a):
        with no_grad():
            return Tensor(x_a).sigmoid().data

    return reference, sigmoid_nd, (x,), ("x",)


def _build_softmax_infer_case(rng):
    from .tensor import Tensor, no_grad

    x = rng.normal(size=(4, 7)) * 3.0

    def reference(x_a):
        with no_grad():
            return Tensor(x_a).softmax(axis=-1).data

    return reference, softmax_nd, (x,), ("x",)


def _build_log_softmax_infer_case(rng):
    from .tensor import Tensor, no_grad

    x = rng.normal(size=(4, 7)) * 3.0

    def reference(x_a):
        with no_grad():
            return Tensor(x_a).log_softmax(axis=-1).data

    return reference, log_softmax_nd, (x,), ("x",)


def _build_masked_softmax_infer_case(rng):
    from . import functional as F
    from .tensor import Tensor, no_grad

    x = rng.normal(size=(4, 7)) * 3.0
    mask = rng.random((4, 7)) < 0.7
    mask[:, 0] = True
    mask[2] = False  # one fully-masked row exercises the zeroing branch

    def reference(x_a):
        with no_grad():
            return F.masked_softmax(Tensor(x_a), mask, axis=-1).data

    def fast(x_a):
        return masked_softmax_nd(x_a, mask, axis=-1)

    return reference, fast, (x,), ("x",)


def _build_layer_norm_infer_case(rng):
    from .layers.normalization import LayerNorm
    from .tensor import Tensor, no_grad

    dim = 6
    x = rng.normal(size=(3, 5, dim)) * 2.0
    layer = LayerNorm(dim)
    layer.gamma.data = rng.normal(size=dim) * 0.5 + 1.0
    layer.beta.data = rng.normal(size=dim) * 0.1

    def reference(x_a):
        with no_grad():
            return layer(Tensor(x_a)).data

    def fast(x_a):
        gamma = layer.gamma.data.astype(x_a.dtype)
        beta = layer.beta.data.astype(x_a.dtype)
        return layer_norm_nd(x_a, gamma, beta, layer.eps)

    return reference, fast, (x,), ("x",)


def _build_linear_infer_case(rng):
    from .tensor import Tensor, no_grad

    weight = rng.normal(size=(5, 8)) * 0.4
    bias = rng.normal(size=5) * 0.2
    x = rng.normal(size=(3, 8))

    def reference(x_a):
        with no_grad():
            return (Tensor(x_a) @ Tensor(weight.T) + Tensor(bias)).data

    def fast(x_a):
        return linear_nd(
            x_a,
            np.ascontiguousarray(weight.T, dtype=x_a.dtype),
            bias.astype(x_a.dtype),
        )

    return reference, fast, (x,), ("x",)


register_infer_case("lstm_cell_fused", _build_lstm_cell_infer_case)
register_infer_case("gru_cell_fused", _build_gru_cell_infer_case)
register_infer_case("lstm_scan_fused", _build_lstm_scan_infer_case)
register_infer_case("gru_scan_fused", _build_gru_scan_infer_case)
register_infer_case("sigmoid_nd", _build_sigmoid_infer_case)
register_infer_case("softmax_nd", _build_softmax_infer_case)
register_infer_case("log_softmax_nd", _build_log_softmax_infer_case)
register_infer_case("masked_softmax_nd", _build_masked_softmax_infer_case)
register_infer_case("layer_norm_nd", _build_layer_norm_infer_case)
register_infer_case("linear_nd", _build_linear_infer_case)
