"""Differential-testing engine for the autograd stack.

The engine answers one question about any differentiable computation: do
the fused kernels, their composed references (``repro.testing.reference``,
swapped in by ``use_fused(False)``), and a central finite-difference oracle
agree on its values and gradients?  Each
comparison produces a :class:`DiffRow` (max absolute / relative error and
max ULP distance) and the rows roll up into a :class:`DiffReport` — a
structured diff that names the op and the quantity that diverged, which is
what turns "the loss is wrong" into "``lstm_cell_fused`` backward, input
``gates``, 3.2e-1 relative error".

One case table, :data:`ORACLE_CASES`, holds a randomized case for every op
that ``repro.nn.kernels`` registers on :class:`Tensor` (plus topic-shaped
masks for the scans).  Each case is replayed twice: :func:`check_all_kernels`
runs it fused vs composed vs finite differences in float64, and
:func:`check_all_infer_kernels` runs the same ``fn`` on float32 Tensors
inside ``infer_mode`` — the serving path, where the scan ops dispatch by
dtype to ``repro.nn.inference`` — against its float64 forward.  A new fused
op needs one table entry; ``tests/test_testing_oracle.py`` fails by name
without it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from ..nn.kernels import use_fused
from ..nn.tensor import Tensor, infer_mode, no_grad, use_infer

__all__ = [
    "DiffRow",
    "DiffReport",
    "DivergenceError",
    "max_ulp_diff",
    "max_ulp_diff_in_dtype",
    "compare_arrays",
    "finite_difference_grad",
    "differential_check",
    "assert_equivalent",
    "check_kernel",
    "check_all_kernels",
    "check_infer_kernel",
    "check_all_infer_kernels",
    "ORACLE_CASES",
]


class DivergenceError(AssertionError):
    """Raised when two execution paths disagree beyond tolerance."""


def max_ulp_diff(a: np.ndarray, b: np.ndarray) -> float:
    """Maximum ULP (units in the last place) distance between two arrays.

    Uses the monotonic int64 reinterpretation of IEEE-754 doubles, so the
    distance counts representable floats between the values.  Returns
    ``inf`` when NaNs/Infs are present in only one of the arrays (or at
    different positions), and 0 for bitwise-equal arrays.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return float("inf")
    bad_a = ~np.isfinite(a)
    bad_b = ~np.isfinite(b)
    if bad_a.any() or bad_b.any():
        # NaN/Inf only match when bit-identical in both arrays.
        if (bad_a != bad_b).any() or not np.array_equal(
            a[bad_a].view(np.int64), b[bad_b].view(np.int64)
        ):
            return float("inf")
    mask = np.int64(0x7FFFFFFFFFFFFFFF)
    bits_a = np.ascontiguousarray(a).view(np.int64)
    bits_b = np.ascontiguousarray(b).view(np.int64)
    order_a = np.where(bits_a < 0, bits_a ^ mask, bits_a)
    order_b = np.where(bits_b < 0, bits_b ^ mask, bits_b)
    good = np.isfinite(a)
    if not good.any():
        return 0.0
    order_a, order_b = order_a[good], order_b[good]
    # Same-sign orders subtract exactly in int64 (no overflow possible);
    # opposite signs could overflow, but there the distance is astronomical
    # anyway, so float64 rounding on |a| + |b| is harmless.  Subtracting
    # *before* any float cast is what keeps 1-ULP gaps between large
    # orders (|order| > 2**53) exact.
    same_sign = (order_a >= 0) == (order_b >= 0)
    diff = np.where(
        same_sign,
        np.abs(order_a - order_b).astype(np.float64),
        np.abs(order_a.astype(np.float64)) + np.abs(order_b.astype(np.float64)),
    )
    return float(diff.max())


def max_ulp_diff_in_dtype(
    a: np.ndarray, b: np.ndarray, dtype=np.float32, zero_atol: float = 0.0
) -> float:
    """ULP distance measured in ``dtype`` (both arrays are cast first).

    The inference path computes in float32, so "how many representable
    floats apart" is only meaningful on the float32 grid — measuring the
    float64 distance of a float32 result against a float64 reference would
    count the cast itself as millions of ULPs.

    ``zero_atol`` is the near-zero escape: positions whose *absolute*
    difference is within it are treated as equal.  ULP spacing shrinks
    with magnitude, so an output that cancels toward zero (a centered
    value, a dot product, a recurrent blend crossing sign) can be
    thousands of ULPs from the reference while being ~1e-7 in absolute
    terms; those positions are the atol row's job, not this one's.  A
    structural bug (wrong gate order, dropped mask) produces O(1)
    absolute differences and still registers as astronomical.
    """
    dtype = np.dtype(dtype)
    if dtype == np.dtype(np.float64) and zero_atol == 0.0:
        return max_ulp_diff(a, b)
    if dtype not in (np.dtype(np.float32), np.dtype(np.float64)):
        raise ValueError(f"unsupported dtype {dtype}")
    a = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    b = np.ascontiguousarray(np.asarray(b, dtype=dtype))
    if a.shape != b.shape:
        return float("inf")
    int_t = np.int32 if dtype == np.dtype(np.float32) else np.int64
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        same = np.array_equal(a.view(int_t), b.view(int_t))
        return 0.0 if same else float("inf")
    if a.size == 0:
        return 0.0
    sign_mask = int_t(0x7FFFFFFF if int_t is np.int32 else 0x7FFFFFFFFFFFFFFF)
    bits_a = a.view(int_t)
    bits_b = b.view(int_t)
    order_a = np.where(bits_a < 0, bits_a ^ sign_mask, bits_a).astype(np.float64)
    order_b = np.where(bits_b < 0, bits_b ^ sign_mask, bits_b).astype(np.float64)
    diff = np.abs(order_a - order_b)
    if zero_atol > 0.0:
        diff[np.abs(a.astype(np.float64) - b.astype(np.float64)) <= zero_atol] = 0.0
    return float(diff.max())


@dataclass(frozen=True)
class DiffRow:
    """One compared quantity (an output or a gradient) of a divergence check."""

    quantity: str
    shape: tuple[int, ...]
    max_abs_err: float
    max_rel_err: float
    max_ulp: float
    rtol: float
    atol: float
    ok: bool

    def format(self) -> str:
        status = "ok  " if self.ok else "FAIL"
        return (
            f"{status} {self.quantity:<28s} shape={str(self.shape):<14s} "
            f"abs={self.max_abs_err:.3e} rel={self.max_rel_err:.3e} "
            f"ulp={self.max_ulp:.3g} (rtol={self.rtol:g}, atol={self.atol:g})"
        )


@dataclass
class DiffReport:
    """Structured diff produced by :func:`differential_check`."""

    name: str
    rows: list[DiffRow] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(row.ok for row in self.rows)

    @property
    def failures(self) -> list[DiffRow]:
        return [row for row in self.rows if not row.ok]

    @property
    def worst(self) -> DiffRow | None:
        """The failing row with the largest relative error (None if passing)."""
        failures = self.failures
        if not failures:
            return None
        return max(failures, key=lambda row: row.max_rel_err)

    def format(self) -> str:
        header = f"differential check {self.name!r}: " + (
            "PASS" if self.passed else f"{len(self.failures)} divergence(s)"
        )
        return "\n".join([header] + ["  " + row.format() for row in self.rows])


def compare_arrays(
    quantity: str,
    a: np.ndarray | None,
    b: np.ndarray | None,
    rtol: float = 1e-9,
    atol: float = 1e-12,
) -> DiffRow:
    """Compare two arrays into a :class:`DiffRow` (``None`` matches ``None``)."""
    if a is None or b is None:
        ok = a is None and b is None
        return DiffRow(quantity, (), 0.0 if ok else float("inf"),
                       0.0 if ok else float("inf"),
                       0.0 if ok else float("inf"), rtol, atol, ok)
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        return DiffRow(quantity, a.shape, float("inf"), float("inf"),
                       float("inf"), rtol, atol, False)
    abs_err = np.abs(a - b)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), np.finfo(np.float64).tiny)
    with np.errstate(invalid="ignore"):
        rel_err = abs_err / denom
    finite = np.isfinite(a) & np.isfinite(b)
    max_abs = float(abs_err[finite].max()) if finite.any() else 0.0
    max_rel = float(rel_err[finite].max()) if finite.any() else 0.0
    within = abs_err <= atol + rtol * denom
    ok = bool(within[finite].all()) if finite.any() else True
    ulp = max_ulp_diff(a, b)
    if (~finite).any() and ulp == float("inf"):
        ok = False  # NaN/Inf present in one path but not (identically) the other
    return DiffRow(quantity, a.shape, max_abs, max_rel, ulp, rtol, atol, ok)


def finite_difference_grad(
    fn: Callable[..., float],
    arrays: Sequence[np.ndarray],
    index: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central finite differences of scalar ``fn(*arrays)`` wrt ``arrays[index]``."""
    arrays = [np.array(a, dtype=np.float64, copy=True) for a in arrays]
    target = arrays[index]
    grad = np.zeros_like(target)
    flat = target.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(*arrays))
        flat[i] = original - eps
        minus = float(fn(*arrays))
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def _run(
    fn: Callable[..., Tensor | tuple[Tensor, ...]],
    arrays: Sequence[np.ndarray],
    fused: bool,
) -> tuple[list[np.ndarray], list[np.ndarray | None]]:
    """Evaluate ``fn`` under one dispatch path; return outputs and grads.

    The scalar objective backpropagated is the sum of all outputs, so a
    single pass yields a comparable gradient for every input.
    """
    tensors = [Tensor(np.array(a, dtype=np.float64, copy=True), requires_grad=True)
               for a in arrays]
    with use_fused(fused):
        out = fn(*tensors)
    outputs = list(out) if isinstance(out, tuple) else [out]
    loss = outputs[0].sum()
    for extra in outputs[1:]:
        loss = loss + extra.sum()
    loss.backward()
    return (
        [np.array(o.data, copy=True) for o in outputs],
        [None if t.grad is None else np.array(t.grad, copy=True) for t in tensors],
    )


def differential_check(
    fn: Callable[..., Tensor | tuple[Tensor, ...]],
    arrays: Sequence[np.ndarray],
    name: str = "fn",
    input_names: Sequence[str] | None = None,
    forward_rtol: float = 0.0,
    forward_atol: float = 0.0,
    grad_rtol: float = 1e-9,
    grad_atol: float = 1e-11,
    fd: bool = True,
    fd_eps: float = 1e-6,
    fd_rtol: float = 1e-3,
    fd_atol: float = 1e-5,
    notape: bool = True,
) -> DiffReport:
    """Run ``fn`` under fused and composed dispatch plus a finite-difference oracle.

    ``fn`` receives one ``Tensor`` per entry of ``arrays`` and returns a
    tensor (or tuple of tensors); the objective compared is the sum of all
    outputs.  Four comparisons feed the report:

    - ``forward[...]`` — fused vs composed output values.  The default
      zero tolerances assert *bitwise* equality, which the fused kernels
      guarantee by construction (DESIGN.md §7);
    - ``grad[...] fused-vs-composed`` — analytic gradients of both paths
      (tight, but not bitwise: backward summation order differs);
    - ``grad[...] fused-vs-fd`` — fused-path gradients against central
      finite differences, an oracle independent of both graph
      implementations (loose: FD truncation error);
    - ``forward[...] tape-vs-notape`` — the taped forward against the same
      forward under ``no_grad`` (the op table's straight-through dispatch).
      Always bitwise: skipping graph construction must not change a single
      computed value.
    """
    input_names = list(input_names) if input_names is not None else [
        f"x{i}" for i in range(len(arrays))
    ]
    report = DiffReport(name)
    fused_out, fused_grads = _run(fn, arrays, fused=True)
    composed_out, composed_grads = _run(fn, arrays, fused=False)
    for i, (a, b) in enumerate(zip(fused_out, composed_out)):
        label = "forward" if len(fused_out) == 1 else f"forward[{i}]"
        report.rows.append(compare_arrays(label, a, b, forward_rtol, forward_atol))
    if notape:
        notape_out, _ = _run_forward_only(fn, arrays)
        for i, (a, b) in enumerate(zip(fused_out, notape_out)):
            label = (
                "forward tape-vs-notape"
                if len(fused_out) == 1
                else f"forward[{i}] tape-vs-notape"
            )
            report.rows.append(compare_arrays(label, a, b, 0.0, 0.0))
    for label, a, b in zip(input_names, fused_grads, composed_grads):
        report.rows.append(
            compare_arrays(f"grad[{label}] fused-vs-composed", a, b,
                           grad_rtol, grad_atol)
        )
    if fd:
        def objective(*raw: np.ndarray) -> float:
            outs, _ = _run_forward_only(fn, raw)
            return sum(float(o.sum()) for o in outs)

        for i, label in enumerate(input_names):
            if fused_grads[i] is None:
                continue
            numeric = finite_difference_grad(objective, arrays, i, eps=fd_eps)
            report.rows.append(
                compare_arrays(f"grad[{label}] fused-vs-fd",
                               fused_grads[i], numeric, fd_rtol, fd_atol)
            )
    return report


def _run_forward_only(
    fn: Callable[..., Tensor | tuple[Tensor, ...]],
    arrays: Sequence[np.ndarray],
) -> tuple[list[np.ndarray], None]:
    """Forward values of ``fn`` on the fused path without building a graph."""
    tensors = [Tensor(a) for a in arrays]
    with no_grad(), use_fused(True):
        out = fn(*tensors)
    outputs = list(out) if isinstance(out, tuple) else [out]
    return [o.data for o in outputs], None


def _run_infer(
    fn: Callable[..., Tensor | tuple[Tensor, ...]],
    arrays: Sequence[np.ndarray],
) -> list[np.ndarray]:
    """Forward values of ``fn`` on float32 Tensors inside an inference block."""
    with use_fused(True), use_infer(True), infer_mode():
        out = fn(*[Tensor(a) for a in arrays])
    outputs = list(out) if isinstance(out, tuple) else [out]
    return [o.data for o in outputs]


def assert_equivalent(
    fn: Callable[..., Tensor | tuple[Tensor, ...]],
    arrays: Sequence[np.ndarray],
    name: str = "fn",
    **tolerances,
) -> DiffReport:
    """:func:`differential_check`, raising :class:`DivergenceError` on failure."""
    report = differential_check(fn, arrays, name=name, **tolerances)
    if not report.passed:
        raise DivergenceError(report.format())
    return report


# ----------------------------------------------------------------------
# Kernel cases.  A case factory maps an ``np.random.Generator`` to
# ``(fn, input_arrays, input_names)``; ``fn`` looks the op up on
# ``Tensor`` when it runs, so the one case reaches the fused kernel, the
# composed reference under ``use_fused(False)`` and, on float32 Tensors,
# the serving kernels.
# ----------------------------------------------------------------------


def _build_lstm_cell_case(rng):
    batch, hidden = 3, 4
    gates = rng.normal(size=(batch, 4 * hidden)) * 0.8
    h0 = rng.normal(size=(batch, hidden)) * 0.5
    c0 = rng.normal(size=(batch, hidden)) * 0.5

    def fn(gates_t, h_t, c_t):
        return Tensor.lstm_cell_fused(gates_t, h_t, c_t)

    return fn, (gates, h0, c0), ("gates", "h_prev", "c_prev")


def _build_gru_cell_case(rng):
    batch, hidden = 3, 4
    gi = rng.normal(size=(batch, 3 * hidden)) * 0.8
    gh = rng.normal(size=(batch, 3 * hidden)) * 0.8
    h0 = rng.normal(size=(batch, hidden)) * 0.5

    def fn(gi_t, gh_t, h_t):
        return Tensor.gru_cell_fused(gi_t, gh_t, h_t)

    return fn, (gi, gh, h0), ("gi", "gh", "h_prev")


def _scan_mask(rng, batch: int = 2, time: int = 4) -> np.ndarray:
    mask = rng.random((batch, time)) < 0.8
    mask[:, 0] = True
    return mask


def _topic_mask(rng) -> np.ndarray:
    """(8, 5) mask shaped like the per-topic histories of a training batch.

    Valid steps form a prefix (``_topic_slots`` fills slot 0 first), 40% of
    the pairs are valid, two rows are entirely dead, and the last two steps
    each have one lone live row.
    """
    lengths = rng.permutation([5, 3, 3, 2, 2, 1, 0, 0])
    return np.arange(5) < lengths[:, None]


def _scan_case(op: str, factor: int, mask_of, hidden: int):
    def build(rng):
        mask = mask_of(rng)
        gi = rng.normal(size=(*mask.shape, factor * hidden)) * 0.8
        w_hh = rng.normal(size=(factor * hidden, hidden)) * 0.4

        def fn(gi_t, w_t):
            return getattr(Tensor, op)(gi_t, w_t, mask)

        return fn, (gi, w_hh), ("gi", "w_hh")

    return build


def _build_bilstm_scan_case(rng):
    batch, time, hidden = 2, 4, 3
    gi_f, gi_b = rng.normal(size=(2, batch, time, 4 * hidden)) * 0.8
    w_f, w_b = rng.normal(size=(2, 4 * hidden, hidden)) * 0.4
    mask = _scan_mask(rng, batch, time)
    mask[1, -1] = False  # padded, so the per-unit reversed mask runs in float32

    def fn(gi_f_t, gi_b_t, w_f_t, w_b_t):
        return Tensor.bilstm_scan(gi_f_t, gi_b_t, w_f_t, w_b_t, mask)

    return fn, (gi_f, gi_b, w_f, w_b), ("gi_f", "gi_b", "w_hh_f", "w_hh_b")


ORACLE_CASES = {
    "lstm_cell_fused": _build_lstm_cell_case,
    "gru_cell_fused": _build_gru_cell_case,
    "lstm_scan_fused": _scan_case("lstm_scan_fused", 4, _scan_mask, 3),
    "gru_scan_fused": _scan_case("gru_scan_fused", 3, _scan_mask, 3),
    "lstm_scan_topic": _scan_case("lstm_scan_fused", 4, _topic_mask, 4),
    "gru_scan_topic": _scan_case("gru_scan_fused", 3, _topic_mask, 4),
    "bilstm_scan": _build_bilstm_scan_case,
}


def _build_case(name: str, seed: int):
    if name not in ORACLE_CASES:
        raise KeyError(
            f"no oracle case for {name!r}; known: {sorted(ORACLE_CASES)}"
        )
    return ORACLE_CASES[name](np.random.default_rng(seed))


def check_kernel(name: str, seed: int = 0, **tolerances) -> DiffReport:
    """Run the :data:`ORACLE_CASES` case of one fused kernel.

    ``seed`` feeds the case's input generator.
    """
    fn, arrays, input_names = _build_case(name, seed)
    return differential_check(
        fn, arrays, name=name, input_names=input_names, **tolerances
    )


def check_all_kernels(seed: int = 0, **tolerances) -> dict[str, DiffReport]:
    """Replay every kernel oracle case; returns reports by name."""
    return {
        name: check_kernel(name, seed=seed, **tolerances)
        for name in sorted(ORACLE_CASES)
    }


def check_infer_kernel(
    name: str,
    seed: int = 0,
    rtol: float = 1e-5,
    atol: float = 1e-6,
    ulp_budget: float = 256.0,
) -> DiffReport:
    """Replay one kernel case in float32 against its float64 forward.

    The case is the one :func:`check_kernel` builds.  Its ``fn`` runs on
    float64 Tensors under ``no_grad`` (the reference) and on float32
    Tensors inside ``infer_mode`` — where the cells compute in float32 and
    the scan ops dispatch by dtype to the tape-free kernels of
    ``repro.nn.inference``, exactly as serving runs them.  Two rows per
    output:

    - ``infer-vs-tape`` — the float32 output (cast back to float64)
      against the reference under explicit rtol/atol budgets.  The
      defaults assume float32: ~100x float32 eps of headroom at O(1)
      magnitudes;
    - ``infer-vs-tape (ulp)`` — ULP distance on the float32 grid
      (:func:`max_ulp_diff_in_dtype`), applied only where the absolute
      difference exceeds a few dtype eps.  ULP spacing shrinks with
      magnitude, so outputs that cancel toward zero (dot products,
      centered values, recurrent blends crossing sign) land thousands of
      ULPs out while being ~1e-7 absolute; the near-zero escape hands
      those positions to the atol row and keeps this row's budget tight
      enough that a structural bug — wrong gate order, dropped mask,
      which produce O(1) absolute differences — cannot hide.
    """
    fn, arrays, _ = _build_case(name, seed)
    reference, _ = _run_forward_only(fn, arrays)
    fast = _run_infer(fn, arrays)
    dtype = np.dtype(np.float32)
    # Escape floor below the magnitude row's own atol: any position it
    # excuses is already bounded tighter by the rtol/atol row above.
    zero_atol = float(16 * np.finfo(dtype).eps)
    report = DiffReport(f"{name} (dispatch=infer, {dtype})")
    for i, (ref, out) in enumerate(zip(reference, fast)):
        label = "infer-vs-tape" if len(fast) == 1 else f"forward[{i}] infer-vs-tape"
        report.rows.append(compare_arrays(label, out, ref, rtol, atol))
        ulp = max_ulp_diff_in_dtype(ref, out, dtype, zero_atol=zero_atol)
        # The atol column doubles as the ULP budget here.
        report.rows.append(
            DiffRow(f"{label} (ulp)", ref.shape, 0.0, 0.0, ulp, 0.0,
                    ulp_budget, ulp <= ulp_budget)
        )
    return report


def check_all_infer_kernels(seed: int = 0, **budgets) -> dict[str, DiffReport]:
    """Replay every kernel oracle case in float32; returns reports by name."""
    return {
        name: check_infer_kernel(name, seed=seed, **budgets)
        for name in sorted(ORACLE_CASES)
    }
