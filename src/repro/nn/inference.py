"""Tape-free float32 scan kernels behind ``repro.nn``'s inference mode.

Serving runs every module's one ``forward`` inside an
:class:`~repro.nn.tensor.infer_mode` block (what ``Module.infer``
enters): no tape, eval semantics, float32 Tensor data, with the float64
parameters cast per op call.  Casting every parameter of a RAPID forward
costs tens of microseconds against a forward of milliseconds, so nothing
is cached and no cache can go stale.  At serving shapes the recurrent
scans' per-step Python loop is the cost that matters, and for float32
inputs the fused scan ops of :mod:`repro.nn.kernels` run the
allocation-free kernels here instead of their training loops:

- :func:`lstm_scan_infer` / :func:`gru_scan_infer` — one scan each; the
  time-major copy the scan makes anyway also reorders the LSTM's training
  gate order ``[i, f, g, o]`` to ``[i, f, o, g]``, so the three sigmoid
  gates form one contiguous block, and negates the sigmoid gates'
  pre-activations (see the section comment below);
- :func:`bilstm_scan_infer` — both directions of a Bi-LSTM packed into
  the *hidden* axis of one scan (per-unit masks carry the backward
  half's time-reversed padding).

:func:`use_infer` (``False``) makes inference blocks float64 on the
training kernels for a block — bit for bit the ``no_grad`` eval forward,
which the golden slates and the benchmark's drift check compare against.

Parity is enforced by the differential oracle (``repro.testing.oracle``
replays every fused-kernel case on these kernels with explicit
tolerance/ULP budgets), the golden-slate suite (identical slates float32
vs float64 for every reranker), and the per-layer drift tests.

Profiling: the fused scan ops that call these kernels are in
:data:`~repro.nn.tensor.PROFILED_OPS`, so the ``repro.obs`` op profiler
times every kernel call once, under the calling op's name.
"""

from __future__ import annotations

import numpy as np

from .tensor import use_infer

__all__ = [
    "use_infer",
    "lstm_scan_infer",
    "gru_scan_infer",
    "bilstm_scan_infer",
    "INFER_CASES",
    "register_infer_case",
]

# ----------------------------------------------------------------------
# Recurrent scan kernels.
#
# The loops run on a "scan layout" prepared by one copy per call:
#
# - time-major (T, ..., width), so per-step slices are contiguous;
# - LSTM gates permuted from the training order [input, forget, cell,
#   output] to [input, forget, output, cell] (inputs and weights), making
#   the three sigmoid gates one contiguous block (the training kernels'
#   per-step ``np.concatenate`` disappears); GRU gates [reset, update,
#   new] already have their sigmoid pair first;
# - sigmoid-gate pre-activations *negated*, in the inputs and in the
#   recurrent weights' columns, so the loop's sigmoid ``1 / (1 + exp(-x))``
#   is three in-place ufuncs on ``-x`` instead of four.  Negation is exact
#   in IEEE arithmetic (products, sums and the matmul's accumulation are
#   sign-symmetric), so the results equal the un-negated form bit for bit.
#
# The direct sigmoid form differs from the training kernels' stable branch
# by a couple of ULPs, bounded by the oracle.  Overflow for strongly
# negative inputs is benign (``exp -> inf`` then ``1/inf -> 0``, the exact
# saturation value), so the loops run under ``np.errstate(over="ignore")``.
# Both scans accept arbitrary leading batch dimensions.
# ----------------------------------------------------------------------


# The layout copies negate with ``np.multiply(x, -1, out=...)``: numpy 2.4's
# float32 ``np.negative`` reads the wrong elements when writing ``out=`` a
# strided view whose last axis has length 1 (e.g. hidden size 1).
_MINUS_ONE = np.float32(-1.0)


def _lstm_scan_gates(dst: np.ndarray, src: np.ndarray) -> None:
    """Copy (..., 4, H) LSTM gate blocks into the scan layout.

    ``src`` is in the training order [i, f, g, o]; ``dst`` receives
    [-i, -f, -o, g].
    """
    np.multiply(src[..., :2, :], _MINUS_ONE, out=dst[..., :2, :])
    np.multiply(src[..., 3, :], _MINUS_ONE, out=dst[..., 2, :])
    dst[..., 3, :] = src[..., 2, :]


def _lstm_layout(x: np.ndarray, dtype) -> np.ndarray:
    """(..., 4H) LSTM pre-activations or weights -> scan layout, cast."""
    out = np.empty(x.shape, dtype=dtype)
    split = x.shape[:-1] + (4, x.shape[-1] // 4)
    _lstm_scan_gates(out.reshape(split), x.reshape(split))
    return out


def _gru_layout(x: np.ndarray, dtype) -> np.ndarray:
    """(..., 3H) GRU pre-activations or weights -> scan layout, cast."""
    out = np.empty(x.shape, dtype=dtype)
    width = 2 * (x.shape[-1] // 3)
    np.multiply(x[..., :width], _MINUS_ONE, out=out[..., :width])
    out[..., width:] = x[..., width:]
    return out


def _time_major(x: np.ndarray) -> np.ndarray:
    """(..., T, D) -> (T, ..., D) view."""
    rank = x.ndim
    return x.transpose((rank - 2,) + tuple(range(rank - 2)) + (rank - 1,))


def _batch_major(x: np.ndarray) -> np.ndarray:
    """(T, ..., D) -> (..., T, D) view (inverse of :func:`_time_major`)."""
    rank = x.ndim
    return x.transpose(tuple(range(1, rank - 1)) + (0, rank - 1))


def _skip_steps(mask: np.ndarray | None, ndim: int) -> np.ndarray | None:
    """Time-major "carry the previous state" flags, or None when all valid.

    ``mask`` is (..., T) — one flag per row and step — or (..., T, H), one
    per hidden unit; ``ndim`` is the rank of the scan input.  Fully-valid
    masks (the common serving case: fixed-length candidate lists) skip
    the per-step blend entirely.
    """
    if mask is None:
        return None
    mask = np.asarray(mask, dtype=bool)
    if mask.all():
        return None
    if mask.ndim < ndim:
        mask = mask[..., None]
    return ~_time_major(mask)


def _lstm_loop(
    gi_t: np.ndarray, w_hh_t: np.ndarray, skip_t: np.ndarray | None
) -> np.ndarray:
    """The LSTM recurrence on scan-layout inputs; returns (T, ..., H)."""
    steps = gi_t.shape[0]
    lead = gi_t.shape[1:-1]
    hs = gi_t.shape[-1] // 4
    dt = gi_t.dtype
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
    # hoisted to locals, the sigmoid is inlined, and zip() hands out the
    # per-step views without integer indexing.
    mm, exp, rec, tanh = np.matmul, np.exp, np.reciprocal, np.tanh
    one = dt.type(1.0)
    with np.errstate(over="ignore"):
        if skip_t is None:
            for o, a in zip(out, gi_t):
                mm(h, w_hh_t, out=z)
                z += a
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
            hb = np.empty(lead + (hs,), dtype=dt)
            cb = np.empty(lead + (hs,), dtype=dt)
            for o, a, skip in zip(out, gi_t, skip_t):
                mm(h, w_hh_t, out=z)
                z += a
                exp(sig, out=sig)
                sig += one
                rec(sig, out=sig)
                tanh(gate_g, out=g)
                np.multiply(gate_f, c, out=cb)
                g *= gate_i
                cb += g
                tanh(cb, out=hb)
                hb *= gate_o
                np.copyto(hb, h, where=skip)
                np.copyto(cb, c, where=skip)
                o[...] = hb
                h, hb = hb, h
                c, cb = cb, c
    return out


def lstm_scan_infer(
    gi: np.ndarray, w_hh_t: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Inference LSTM scan on raw arrays (zero initial state).

    ``gi`` is (..., T, 4H) input pre-activations and ``w_hh_t`` the
    (..., H, 4H) transposed recurrent weights (broadcasting over any
    leading batch axes), both with gates in the training order [input,
    forget, cell, output].  ``w_hh_t`` may be float64: it is cast to
    ``gi``'s dtype in the layout copy.  ``mask`` is (..., T) or per hidden
    unit (..., T, H).  Returns (..., T, H) hidden states (post-mask;
    padded steps carry the previous state).
    """
    dt = gi.dtype
    gi_t = _lstm_layout(_time_major(gi), dt)
    w_t = _lstm_layout(w_hh_t, dt)
    out = _lstm_loop(gi_t, w_t, _skip_steps(mask, gi.ndim))
    return _batch_major(out)


def gru_scan_infer(
    gi: np.ndarray, w_hh_t: np.ndarray, mask: np.ndarray | None = None
) -> np.ndarray:
    """Inference GRU scan on raw arrays (zero initial state).

    ``gi`` is (..., T, 3H) input pre-activations packed [reset, update,
    new]; ``w_hh_t`` is (..., H, 3H), cast to ``gi``'s dtype in the layout
    copy; ``mask`` is (..., T) or (..., T, H).  Returns (..., T, H).
    """
    hs = gi.shape[-1] // 3
    lead = gi.shape[:-2]
    steps = gi.shape[-2]
    dt = gi.dtype
    gi_t = _gru_layout(_time_major(gi), dt)
    w_t = _gru_layout(w_hh_t, dt)
    skip_t = _skip_steps(mask, gi.ndim)
    h: np.ndarray = np.zeros(lead + (hs,), dtype=dt)
    out = np.empty((steps,) + lead + (hs,), dtype=dt)
    one = dt.type(1.0)
    # Allocation-free loop buffers, mirroring _lstm_loop.  The reset and
    # update pre-activations arrive negated; the candidate's recurrent
    # half ``gh_n`` does not.
    gh = np.empty(lead + (3 * hs,), dtype=dt)
    ru = np.empty(lead + (2 * hs,), dtype=dt)
    r = ru[..., :hs]
    u = ru[..., hs:]
    n = np.empty(lead + (hs,), dtype=dt)
    gh_ru = gh[..., : 2 * hs]
    gh_n = gh[..., 2 * hs :]
    # Same loop treatment as _lstm_loop: local ufuncs, inlined sigmoid,
    # zip-provided per-step views.
    mm, exp, rec, tanh = np.matmul, np.exp, np.reciprocal, np.tanh
    with np.errstate(over="ignore"):
        if skip_t is None:
            for o, a in zip(out, gi_t):
                mm(h, w_t, out=gh)
                np.add(a[..., : 2 * hs], gh_ru, out=ru)
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
            hb = np.empty(lead + (hs,), dtype=dt)
            for o, a, skip in zip(out, gi_t, skip_t):
                mm(h, w_t, out=gh)
                np.add(a[..., : 2 * hs], gh_ru, out=ru)
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
                np.copyto(hb, h, where=skip)
                o[...] = hb
                h, hb = hb, h
    return _batch_major(out)


def bilstm_scan_infer(
    gi_f: np.ndarray,
    gi_b: np.ndarray,
    w_hh_f: np.ndarray,
    w_hh_b: np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """Both directions of a Bi-LSTM in ONE scan; returns (B, T, 2H).

    ``gi_f`` / ``gi_b`` are the (B, T, 4H) training-order input
    pre-activations of the forward LSTM and of the backward LSTM over the
    time-reversed input; ``w_hh_f`` / ``w_hh_b`` their (4H, H) recurrent
    weights; ``mask`` the (B, T) validity of the forward time axis.

    The directions are packed into the *hidden* axis: the state is
    (B, 2H) ``[fwd | bwd]`` and the recurrent matrix a block-diagonal
    (2H, 8H) with gates grouped by type across directions
    ``[i_f i_b | f_f f_b | o_f o_b | g_f g_b]``, so the T-step loop runs
    once with a 2-D per-step matmul.  The backward half's padding is
    time-reversed, so a padded batch gets a per-hidden-unit mask.
    """
    batch, steps, width = gi_f.shape
    hidden = width // 4
    dt = gi_f.dtype
    # One copy builds the scan layout of both directions: time-major,
    # (gate, direction, H) on the last axis.
    gi_t = np.empty((steps, batch, 4, 2, hidden), dtype=dt)
    w_t = np.zeros((2, hidden, 4, 2, hidden), dtype=dt)
    for d, (gi, w_hh) in enumerate(((gi_f, w_hh_f), (gi_b, w_hh_b))):
        gates = gi.reshape(batch, steps, 4, hidden).transpose(1, 0, 2, 3)
        _lstm_scan_gates(gi_t[:, :, :, d], gates)
        _lstm_scan_gates(w_t[d, :, :, d], w_hh.T.reshape(hidden, 4, hidden))
    skip_t = None
    if mask is not None and not np.all(mask):
        mask = np.asarray(mask, dtype=bool)
        both = np.stack([mask.T, mask.T[::-1]], axis=-1)  # (T, B, 2)
        skip_t = ~np.repeat(both, hidden, axis=-1)  # (T, B, 2H)
    out = _lstm_loop(
        gi_t.reshape(steps, batch, 8 * hidden),
        w_t.reshape(2 * hidden, 8 * hidden),
        skip_t,
    )
    # (T, B, [fwd | bwd]) -> (B, T, 2H), un-reversing the backward half.
    out = out.transpose(1, 0, 2)
    return np.concatenate([out[..., :hidden], out[:, ::-1, hidden:]], axis=-1)


# ----------------------------------------------------------------------
# Differential-oracle twin cases.
#
# Mirrors ``repro.nn.kernels.ORACLE_CASES``: every fused kernel registers
# an inference twin here so ``repro.testing.oracle`` can replay the
# tape-free kernel against the float64 tape reference with explicit
# tolerance / ULP budgets (the budgets live in the oracle, the cases
# here).  ``build(rng)`` returns ``(reference_fn, infer_fn, arrays,
# input_names)``: ``reference_fn`` consumes float64 arrays through the
# tape path, ``infer_fn`` consumes arrays pre-cast to float32 through the
# production kernels above.
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
        w_hh_t = np.zeros((hidden, 4 * hidden), dtype=gates_a.dtype)
        return lstm_scan_infer(gates_a[:, None, :], w_hh_t, mask[:, None])[:, 0, :]

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


def _lstm_scan_infer_case(rng, batch, time_steps, hidden, mask_of):
    from .tensor import Tensor, no_grad

    gi = rng.normal(size=(batch, time_steps, 4 * hidden)) * 0.8
    w_hh = rng.normal(size=(4 * hidden, hidden)) * 0.4
    mask = mask_of(rng)

    def reference(gi_a, w_a):
        with no_grad():
            out = Tensor.lstm_scan_fused(Tensor(gi_a), Tensor(w_a), mask)
        return out.data

    def fast(gi_a, w_a):
        return lstm_scan_infer(gi_a, w_a.T, mask)

    return reference, fast, (gi, w_hh), ("gi", "w_hh")


def _gru_scan_infer_case(rng, batch, time_steps, hidden, mask_of):
    from .tensor import Tensor, no_grad

    gi = rng.normal(size=(batch, time_steps, 3 * hidden)) * 0.8
    w_hh = rng.normal(size=(3 * hidden, hidden)) * 0.4
    mask = mask_of(rng)

    def reference(gi_a, w_a):
        with no_grad():
            out = Tensor.gru_scan_fused(Tensor(gi_a), Tensor(w_a), mask)
        return out.data

    def fast(gi_a, w_a):
        return gru_scan_infer(gi_a, np.ascontiguousarray(w_a.T), mask)

    return reference, fast, (gi, w_hh), ("gi", "w_hh")


def _scan_mask(rng) -> np.ndarray:
    mask = rng.random((2, 5)) < 0.8
    mask[:, 0] = True
    return mask


def _build_lstm_scan_infer_case(rng):
    return _lstm_scan_infer_case(rng, 2, 5, 3, _scan_mask)


def _build_gru_scan_infer_case(rng):
    return _gru_scan_infer_case(rng, 2, 5, 3, _scan_mask)


def _build_lstm_scan_topic_infer_case(rng):
    from .kernels import _topic_mask

    return _lstm_scan_infer_case(rng, 8, 5, 4, _topic_mask)


def _build_gru_scan_topic_infer_case(rng):
    from .kernels import _topic_mask

    return _gru_scan_infer_case(rng, 8, 5, 4, _topic_mask)


def _build_bilstm_scan_infer_case(rng):
    from .tensor import Tensor, no_grad

    batch, time_steps, hidden = 2, 5, 3
    gi_f, gi_b = rng.normal(size=(2, batch, time_steps, 4 * hidden)) * 0.8
    w_f, w_b = rng.normal(size=(2, 4 * hidden, hidden)) * 0.4
    mask = rng.random((batch, time_steps)) < 0.8
    mask[:, 0] = True
    mask[1, -1] = False  # padded, so the per-unit reversed mask runs

    def reference(gi_f_a, gi_b_a, w_f_a, w_b_a):
        with no_grad():
            fwd = Tensor.lstm_scan_fused(Tensor(gi_f_a), Tensor(w_f_a), mask)
            bwd = Tensor.lstm_scan_fused(
                Tensor(gi_b_a), Tensor(w_b_a), mask[:, ::-1]
            )
        return np.concatenate([fwd.data, bwd.data[:, ::-1]], axis=-1)

    def fast(gi_f_a, gi_b_a, w_f_a, w_b_a):
        return bilstm_scan_infer(gi_f_a, gi_b_a, w_f_a, w_b_a, mask)

    return reference, fast, (gi_f, gi_b, w_f, w_b), ("gi_f", "gi_b", "w_hh_f", "w_hh_b")


register_infer_case("lstm_cell_fused", _build_lstm_cell_infer_case)
register_infer_case("gru_cell_fused", _build_gru_cell_infer_case)
register_infer_case("lstm_scan_fused", _build_lstm_scan_infer_case)
register_infer_case("gru_scan_fused", _build_gru_scan_infer_case)
register_infer_case("lstm_scan_topic", _build_lstm_scan_topic_infer_case)
register_infer_case("gru_scan_topic", _build_gru_scan_topic_infer_case)
register_infer_case("bilstm_scan", _build_bilstm_scan_infer_case)
