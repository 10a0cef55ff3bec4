"""Fused recurrent kernels: single-node LSTM/GRU steps with analytic backward.

A composed-op recurrent cell builds ~10 tiny autograd nodes per timestep
(four gate slices, three sigmoids, a tanh, and the elementwise state
update), each carrying a Python closure and a full-array allocation in
backward.  The kernels here collapse one whole timestep into a single
graph node per output: the forward runs the gate nonlinearities and state
update in vectorized numpy, caches exactly the activations the backward
needs, and the backward applies the closed-form gradient of the full step
in one shot.  See DESIGN.md ("Fused recurrent kernels") for the
equivalence argument.

The cells take no mask: their callers (``LSTMCell`` / ``GRUCell``)
advance every row.  The scans take the (B, T) padding mask and step only
the live rows: step ``t`` gathers the rows where ``mask[:, t]`` is true,
runs the gates, the state update and ``h @ W_hh^T`` on them and writes
them back, while dead rows carry their state and pass their gradient
straight through (their ``dgi`` stays zero).  A mask with every entry
true is no mask.  One rule keeps this bitwise: a lone live row in a
larger batch is multiplied as a two-row product, because numpy sends a
one-row product to gemv, which rounds differently from the full-batch
gemm of the composed reference.

Production always runs these kernels: the recurrent layers call the
``Tensor`` ops directly, with no dispatch branch.  The composed-op graph
they replace lives once, as a test reference in
:mod:`repro.testing.reference`; :func:`use_fused` swaps it in under the op
names for a block, which is how the differential oracle
(:mod:`repro.testing.oracle`, whose case table covers every op registered
here), the fuzzer and the training-parity tests compare the two.  Forward
values are bitwise identical (the kernels call ``Tensor.sigmoid``'s own
forward, ``_sigmoid``) and gradients agree to ~1e-12 (they differ only
in floating-point summation order inside backward).

The ops are registered on :class:`Tensor` via
:func:`repro.nn.tensor.register_custom_op` so the opt-in op profiler
(``repro.obs.autograd``) attributes their forward and backward time under
``lstm_cell_fused`` / ``gru_cell_fused``.

Serving runs the same ops: inside a float32 inference block
(``Module.infer``) the cells compute in float32 as they are, the scans
receive float32 inputs and run the tape-free kernels of
:mod:`repro.nn.inference` instead, and :func:`bilstm_scan` runs a
Bi-LSTM's two directions as one packed scan.
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from . import inference
from .tensor import Tensor, _sigmoid, as_tensor, register_custom_op, restore_ops

__all__ = [
    "lstm_cell_fused",
    "gru_cell_fused",
    "lstm_scan_fused",
    "gru_scan_fused",
    "bilstm_scan",
    "use_fused",
    "zero_state",
]

# ----------------------------------------------------------------------
# Reference substitution for tests: use_fused(False) installs the composed
# graphs of repro.testing.reference under the fused op names.
# ----------------------------------------------------------------------

_FUSED_OPS = ("lstm_cell_fused", "gru_cell_fused", "lstm_scan_fused", "gru_scan_fused")

# Op attributes found on entry to each enclosing use_fused(False) block.
_OUTSIDE_REFERENCE: list[dict[str, object]] = []


@contextmanager
def use_fused(value: bool):
    """Run the fused kernels (``True``) or the composed references (``False``).

    ``False`` installs :data:`repro.testing.reference.REFERENCE_OPS` under
    the four op names for the block.  ``True`` inside a ``False`` block puts
    back what was installed outside the nearest ``False`` block (so a
    monkeypatched kernel under test stays in place); outside any ``False``
    block it changes nothing.  Leaving a block restores the attributes it
    found on entry, also when the block raises.
    """
    entry = {name: Tensor.__dict__[name] for name in _FUSED_OPS}
    if value:
        if _OUTSIDE_REFERENCE:
            restore_ops(_OUTSIDE_REFERENCE[-1])
    else:
        from ..testing.reference import REFERENCE_OPS

        _OUTSIDE_REFERENCE.append(entry)
        restore_ops({name: staticmethod(REFERENCE_OPS[name]) for name in _FUSED_OPS})
    try:
        yield
    finally:
        if not value:
            _OUTSIDE_REFERENCE.pop()
        restore_ops(entry)


# ----------------------------------------------------------------------
# Cached zero initial states.  Every sequence (and bare cell call with
# ``state=None``) used to allocate two fresh (batch, hidden) zero tensors;
# the state is only ever *read* (the recurrence writes to new tensors), so
# a per-shape cache of read-only constants is safe to share.  Keyed by
# dtype too: float32 inference blocks read float32 zeros.
# ----------------------------------------------------------------------

_ZERO_STATE_CACHE: dict[tuple, Tensor] = {}


def zero_state(*shape: int, dtype=np.float64) -> Tensor:
    """A cached, read-only all-zeros constant tensor of ``shape``."""
    key = (shape, np.dtype(dtype))
    cached = _ZERO_STATE_CACHE.get(key)
    if cached is None:
        data = np.zeros(shape, dtype=dtype)
        data.flags.writeable = False
        cached = _ZERO_STATE_CACHE[key] = Tensor._result(data)
    return cached


# ----------------------------------------------------------------------
# Fused LSTM step
# ----------------------------------------------------------------------


def lstm_cell_fused(
    gates: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
) -> tuple[Tensor, Tensor]:
    """One LSTM timestep as a fused autograd node pair.

    Parameters
    ----------
    gates:
        (B, 4H) pre-activation gate matrix ``x W_ih^T + h W_hh^T + b``,
        packed ``[input, forget, cell, output]`` along the last axis.
    h_prev, c_prev:
        (B, H) previous hidden and cell state.

    Returns
    -------
    ``(h_t, c_t)`` — two output tensors sharing the cached activations;
    their backward closures each scatter the closed-form step gradient into
    ``gates``/``h_prev``/``c_prev`` (gradients from both outputs add, which
    is exactly the chain rule for the two uses of the shared internals).
    """
    gates = as_tensor(gates)
    h_prev = as_tensor(h_prev)
    c_prev = as_tensor(c_prev)
    z = gates.data
    hs = z.shape[-1] // 4
    # One sigmoid pass over the three sigmoid gates (i, f, o packed into a
    # contiguous scratch block) instead of three separate ufunc chains.
    act = _sigmoid(np.concatenate((z[:, : 2 * hs], z[:, 3 * hs :]), axis=1))
    i = act[:, :hs]
    f = act[:, hs : 2 * hs]
    o = act[:, 2 * hs :]
    g = np.tanh(z[:, 2 * hs : 3 * hs])
    c_new = f * c_prev.data + i * g
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    parents = (gates, h_prev, c_prev)

    # The local gate derivatives are identical for both output closures, so
    # compute them once on first use and share: a (B, 4H) matrix K whose
    # i/f/g slots hold d c_new / d z_gate and whose o slot holds
    # d h_new / d z_o.
    shared: dict[str, np.ndarray] = {}

    def _factors() -> np.ndarray:
        factors = shared.get("K")
        if factors is None:
            factors = np.empty_like(z)
            np.multiply(i * (1.0 - i), g, out=factors[:, :hs])
            np.multiply(f * (1.0 - f), c_prev.data, out=factors[:, hs : 2 * hs])
            np.multiply(1.0 - g * g, i, out=factors[:, 2 * hs : 3 * hs])
            np.multiply(o * (1.0 - o), tanh_c, out=factors[:, 3 * hs :])
            shared["K"] = factors
        return factors

    def backward_h(grad: np.ndarray) -> None:
        factors = _factors()
        dc = grad * o
        dc *= 1.0 - tanh_c * tanh_c
        dgates = np.empty_like(z)
        np.multiply(factors[:, :hs], dc, out=dgates[:, :hs])
        np.multiply(factors[:, hs : 2 * hs], dc, out=dgates[:, hs : 2 * hs])
        np.multiply(factors[:, 2 * hs : 3 * hs], dc, out=dgates[:, 2 * hs : 3 * hs])
        np.multiply(factors[:, 3 * hs :], grad, out=dgates[:, 3 * hs :])
        gates._accumulate_owned(dgates)
        dc *= f
        c_prev._accumulate_owned(dc)

    def backward_c(grad: np.ndarray) -> None:
        factors = _factors()
        dgates = np.empty_like(z)
        np.multiply(factors[:, :hs], grad, out=dgates[:, :hs])
        np.multiply(factors[:, hs : 2 * hs], grad, out=dgates[:, hs : 2 * hs])
        np.multiply(factors[:, 2 * hs : 3 * hs], grad, out=dgates[:, 2 * hs : 3 * hs])
        dgates[:, 3 * hs :] = 0.0
        gates._accumulate_owned(dgates)
        c_prev._accumulate_owned(grad * f)

    return (
        Tensor._make(h_new, parents, backward_h),
        Tensor._make(c_new, parents, backward_c),
    )


# ----------------------------------------------------------------------
# Fused GRU step
# ----------------------------------------------------------------------


def gru_cell_fused(
    gi: Tensor,
    gh: Tensor,
    h_prev: Tensor,
) -> Tensor:
    """One GRU timestep as a single fused autograd node.

    Parameters
    ----------
    gi:
        (B, 3H) input pre-activations ``x W_ih^T + b``, packed
        ``[reset, update, new]``.
    gh:
        (B, 3H) recurrent pre-activations ``h_prev W_hh^T`` (kept separate
        because the candidate gate applies the reset gate to its recurrent
        half: ``n = tanh(gi_n + r * gh_n)``).
    h_prev:
        (B, H) previous hidden state.
    """
    gi = as_tensor(gi)
    gh = as_tensor(gh)
    h_prev = as_tensor(h_prev)
    a, b = gi.data, gh.data
    hs = a.shape[-1] // 3
    # One sigmoid pass over both sigmoid gates (r, u share a contiguous
    # pre-activation block) instead of two separate ufunc chains.
    ru = _sigmoid(a[:, : 2 * hs] + b[:, : 2 * hs])
    r = ru[:, :hs]
    u = ru[:, hs:]
    gh_n = b[:, 2 * hs :]
    n = np.tanh(a[:, 2 * hs :] + r * gh_n)
    h_new = (1.0 - u) * n + u * h_prev.data

    def backward(grad: np.ndarray) -> None:
        dpre_n = grad * (1.0 - u)
        dpre_n *= 1.0 - n * n
        du = grad * (h_prev.data - n)
        du *= u
        du *= 1.0 - u
        dr = dpre_n * gh_n
        dr *= r
        dr *= 1.0 - r
        dgi = np.empty_like(a)
        dgi[:, :hs] = dr
        dgi[:, hs : 2 * hs] = du
        dgi[:, 2 * hs :] = dpre_n
        dgh = np.empty_like(a)
        dgh[:, :hs] = dr
        dgh[:, hs : 2 * hs] = du
        np.multiply(dpre_n, r, out=dgh[:, 2 * hs :])
        gi._accumulate_owned(dgi)
        gh._accumulate_owned(dgh)
        h_prev._accumulate_owned(grad * u)

    return Tensor._make(h_new, (gi, gh, h_prev), backward)


# ----------------------------------------------------------------------
# Fused sequence scans: the whole time loop as ONE autograd node.
#
# Even with fused cells, a T-step scan builds ~5 graph nodes per timestep
# (input slice, recurrent matmul, add, cell, stack) and the engine copies
# every first gradient it accumulates.  The scan kernels run the entire
# recurrence — including the recurrent matmul — in plain numpy, cache the
# per-step activations, and replay the closed-form BPTT loop in one
# backward closure.  Initial state is zero, which is what the sequence
# wrappers always use.
# ----------------------------------------------------------------------


def _live_steps(mask: np.ndarray | None, time: int) -> list[np.ndarray | None]:
    """Per step, the indices of the rows it updates; ``None`` means every row.

    A mask with every entry true is no mask.  A step with no live row gets
    an empty index array: the scan skips it and every row carries its state.
    """
    if mask is None or mask.all():
        return [None] * time
    return [None if step.all() else np.flatnonzero(step) for step in mask.T]


def _live_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for the gathered live rows of a batch, rounded as the full batch.

    numpy sends a one-row product to gemv, which rounds differently from
    the gemm that multiplies the whole batch, so a lone live row is padded
    to two rows.  A batch of one never gathers: its full product is the
    gemv the composed reference runs too.
    """
    if len(a) == 1:
        return (np.concatenate((a, a)) @ b)[:1]
    return a @ b


def lstm_scan_fused(
    gi: Tensor,
    w_hh: Tensor,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Full LSTM scan as one fused autograd node.

    Parameters
    ----------
    gi:
        (B, T, 4H) input pre-activations ``x W_ih^T + b`` for every step
        (one batched matmul, computed by the caller).
    w_hh:
        (4H, H) recurrent weights; the scan computes ``h W_hh^T`` itself.
    mask:
        Optional (B, T) validity mask; padded steps carry the previous
        state, exactly like the per-step composed graph.  Each step runs
        on its live rows only.

    Returns
    -------
    (B, T, H) hidden states after every step (post-mask).  The final
    hidden state is ``outputs[:, -1, :]`` — padded tails carry it forward.

    Float32 inputs (which only a float32 inference block produces) run
    the tape-free :func:`repro.nn.inference.lstm_scan_infer` instead.
    """
    gi = as_tensor(gi)
    w_hh = as_tensor(w_hh)
    z_all = gi.data
    if z_all.dtype == np.float32:
        return Tensor._result(inference.lstm_scan_infer(z_all, w_hh.data.T, mask))
    batch, time, width = z_all.shape
    hs = width // 4
    w = w_hh.data
    wt = w.T
    steps = _live_steps(mask, time)
    h = np.zeros((batch, hs))
    c = np.zeros((batch, hs))
    outputs = np.empty((batch, time, hs))
    cache: list[tuple | None] = []
    for t, live in enumerate(steps):
        if live is None:
            h_prev, c_prev = h, c
            z = z_all[:, t] + h @ wt
        elif live.size:
            h_prev, c_prev = h[live], c[live]
            z = z_all[live, t] + _live_matmul(h_prev, wt)
        else:
            outputs[:, t] = h
            cache.append(None)
            continue
        act = _sigmoid(np.concatenate((z[:, : 2 * hs], z[:, 3 * hs :]), axis=1))
        i = act[:, :hs]
        f = act[:, hs : 2 * hs]
        o = act[:, 2 * hs :]
        g = np.tanh(z[:, 2 * hs : 3 * hs])
        c_new = f * c_prev + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        if live is None:
            h, c = h_new, c_new
        else:
            # h and c are never cached (a gathered h_prev is a copy), so the
            # live rows are written in place and the dead rows carry.
            h[live] = h_new
            c[live] = c_new
        outputs[:, t] = h
        cache.append((live, act, g, tanh_c, c_prev, h_prev))

    def backward(grad: np.ndarray) -> None:
        dgi = np.zeros_like(z_all)
        dw = np.zeros_like(w)
        dh = np.zeros((batch, hs))
        dc = np.zeros((batch, hs))
        for t in range(time - 1, -1, -1):
            dh += grad[:, t]
            if cache[t] is None:
                continue
            live, act, g, tanh_c, c_prev, h_prev = cache[t]
            i = act[:, :hs]
            f = act[:, hs : 2 * hs]
            o = act[:, 2 * hs :]
            if live is None:
                dh_t, dc_t, dz = dh, dc, dgi[:, t]
            else:
                dh_t, dc_t, dz = dh[live], dc[live], np.empty((live.size, width))
            dc_total = dc_t + dh_t * o * (1.0 - tanh_c * tanh_c)
            np.multiply(dc_total * i * (1.0 - i), g, out=dz[:, :hs])
            np.multiply(dc_total * f * (1.0 - f), c_prev, out=dz[:, hs : 2 * hs])
            np.multiply(dc_total * (1.0 - g * g), i, out=dz[:, 2 * hs : 3 * hs])
            np.multiply(dh_t * o * (1.0 - o), tanh_c, out=dz[:, 3 * hs :])
            dw += dz.T @ h_prev
            if live is None:
                dh = dz @ w
                dc = dc_total * f
            else:
                # A dead row's dh/dc passes through; its dgi stays zero.
                dgi[live, t] = dz
                dh[live] = _live_matmul(dz, w)
                dc[live] = dc_total * f
        gi._accumulate_owned(dgi)
        w_hh._accumulate_owned(dw)

    return Tensor._make(outputs, (gi, w_hh), backward)


def gru_scan_fused(
    gi: Tensor,
    w_hh: Tensor,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Full GRU scan as one fused autograd node.

    ``gi`` is (B, T, 3H) input pre-activations, ``w_hh`` is (3H, H); the
    scan computes the recurrent pre-activations ``h W_hh^T`` per step and
    returns (B, T, H) hidden states (post-mask, zero initial state).  Each
    step runs on its live rows only, as in :func:`lstm_scan_fused`.
    Float32 inputs run :func:`repro.nn.inference.gru_scan_infer`.
    """
    gi = as_tensor(gi)
    w_hh = as_tensor(w_hh)
    a_all = gi.data
    if a_all.dtype == np.float32:
        return Tensor._result(inference.gru_scan_infer(a_all, w_hh.data.T, mask))
    batch, time, width = a_all.shape
    hs = width // 3
    w = w_hh.data
    wt = w.T
    steps = _live_steps(mask, time)
    h = np.zeros((batch, hs))
    outputs = np.empty((batch, time, hs))
    cache: list[tuple | None] = []
    for t, live in enumerate(steps):
        if live is None:
            h_prev = h
            a = a_all[:, t]
            b = h @ wt
        elif live.size:
            h_prev = h[live]
            a = a_all[live, t]
            b = _live_matmul(h_prev, wt)
        else:
            outputs[:, t] = h
            cache.append(None)
            continue
        ru = _sigmoid(a[:, : 2 * hs] + b[:, : 2 * hs])
        r = ru[:, :hs]
        u = ru[:, hs:]
        gh_n = b[:, 2 * hs :]
        n = np.tanh(a[:, 2 * hs :] + r * gh_n)
        h_new = (1.0 - u) * n + u * h_prev
        if live is None:
            h = h_new
        else:
            h[live] = h_new
        outputs[:, t] = h
        cache.append((live, ru, n, gh_n, h_prev))

    def backward(grad: np.ndarray) -> None:
        dgi = np.zeros_like(a_all)
        dw = np.zeros_like(w)
        dh = np.zeros((batch, hs))
        for t in range(time - 1, -1, -1):
            dh += grad[:, t]
            if cache[t] is None:
                continue
            live, ru, n, gh_n, h_prev = cache[t]
            r = ru[:, :hs]
            u = ru[:, hs:]
            dh_t = dh if live is None else dh[live]
            dpre_n = dh_t * (1.0 - u)
            dpre_n *= 1.0 - n * n
            du = dh_t * (h_prev - n)
            du *= u
            du *= 1.0 - u
            dr = dpre_n * gh_n
            dr *= r
            dr *= 1.0 - r
            da = dgi[:, t] if live is None else np.empty((live.size, width))
            da[:, :hs] = dr
            da[:, hs : 2 * hs] = du
            da[:, 2 * hs :] = dpre_n
            dgh = np.empty((len(da), width))
            dgh[:, :hs] = dr
            dgh[:, hs : 2 * hs] = du
            np.multiply(dpre_n, r, out=dgh[:, 2 * hs :])
            dw += dgh.T @ h_prev
            if live is None:
                dh = dgh @ w
                dh += dh_t * u
            else:
                dgi[live, t] = da
                dh[live] = _live_matmul(dgh, w) + dh_t * u
        gi._accumulate_owned(dgi)
        w_hh._accumulate_owned(dw)

    return Tensor._make(outputs, (gi, w_hh), backward)


def bilstm_scan(
    gi_f: Tensor,
    gi_b: Tensor,
    w_hh_f: Tensor,
    w_hh_b: Tensor,
    mask: np.ndarray | None = None,
) -> Tensor:
    """Both directions of a Bi-LSTM: (B, T, 2H) ``[forward | backward]``.

    ``gi_f`` holds the forward LSTM's (B, T, 4H) input pre-activations,
    ``gi_b`` the backward LSTM's over the time-reversed input; ``mask`` is
    the (B, T) validity of the forward time axis.  On the tape this is two
    :func:`lstm_scan_fused` nodes; float32 inputs run both directions as
    ONE packed scan (:func:`repro.nn.inference.bilstm_scan_infer`), which
    halves the per-step Python loop that dominates serving.
    """
    if gi_f.data.dtype == np.float32:
        return Tensor._result(
            inference.bilstm_scan_infer(
                gi_f.data, gi_b.data, w_hh_f.data, w_hh_b.data, mask
            )
        )
    rev_mask = mask[:, ::-1] if mask is not None else None
    fwd = Tensor.lstm_scan_fused(gi_f, w_hh_f, mask)
    bwd = Tensor.lstm_scan_fused(gi_b, w_hh_b, rev_mask)
    return Tensor.concatenate([fwd, bwd[:, ::-1, :]], axis=2)


register_custom_op("lstm_cell_fused", lstm_cell_fused)
register_custom_op("gru_cell_fused", gru_cell_fused)
register_custom_op("lstm_scan_fused", lstm_scan_fused)
register_custom_op("gru_scan_fused", gru_scan_fused)
register_custom_op("bilstm_scan", bilstm_scan)
