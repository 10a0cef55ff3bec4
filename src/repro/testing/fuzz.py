"""Autograd fuzzer: seeded random programs with shrinking.

Per-op gradient tests cannot catch *interaction* bugs — a broadcast inside
a softmax feeding a fused LSTM step, a reduction after advanced indexing.
The fuzzer generates random straight-line programs over the Tensor op
vocabulary (elementwise math, broadcasting, slicing, gather, reductions,
shape ops, concatenation/stacking, ``where``, and the fused recurrent
kernels registered via ``register_custom_op``) and checks every program
with the differential oracle: forward + backward agreement of the fused
kernels with their composed references (``repro.testing.reference``),
central finite differences as an implementation-independent gradient
oracle, and bitwise tape-vs-no-tape forward equality (the op table's
straight-through dispatch must not change a single computed value).

Everything is derived from integer seeds, so a failure is a *value*: the
:class:`Program` that reproduces it.  :func:`shrink` then greedily deletes
ops while the failure persists, yielding a minimal reproducing program
whose remaining op names localize the bug (see
``tests/test_testing_fuzz.py`` for the injected-kernel-bug demonstration).

Command line::

    python -m repro.testing.fuzz --smoke          # 200 seeded programs
    python -m repro.testing.fuzz --count 1000 --seed-base 7 --verbose

Exit status is nonzero when any program fails; the shrunken reproduction
and its structured diff are printed.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from ..nn.tensor import Tensor
from .oracle import DiffReport, differential_check

__all__ = [
    "OpCall",
    "Program",
    "FuzzFailure",
    "OP_VOCABULARY",
    "generate_program",
    "build_function",
    "check_program",
    "shrink",
    "fuzz",
    "main",
]

_HIDDEN = 3  # hidden width used by the recurrent macro ops
_TIME = 3  # scan length used by the recurrent macro ops


def _aux_rng(program_seed: int, index: int) -> np.random.Generator:
    """Deterministic generator for op ``index``'s auxiliary constants."""
    return np.random.default_rng([program_seed, index])


# ----------------------------------------------------------------------
# Op vocabulary.  Each op maps (t, rng, param) -> Tensor and must accept
# any 2-D float input; auxiliary constants are drawn from ``rng`` (fully
# determined by the program seed and op position, so every execution mode
# and finite-difference evaluation sees identical constants).  Inputs are
# kept bounded (clips, smoothed divisors) so finite differences stay
# well-conditioned across arbitrary compositions.
# ----------------------------------------------------------------------


def _op_tanh(t, rng, param):
    return t.tanh()


def _op_sigmoid(t, rng, param):
    return t.sigmoid()


def _op_relu(t, rng, param):
    return (t + 0.05).relu()


def _op_exp(t, rng, param):
    return t.clip(-3.0, 3.0).exp() * 0.1


def _op_log(t, rng, param):
    return (t * t + 1.0).log()


def _op_abs(t, rng, param):
    return (t + 0.01).abs()


def _op_square(t, rng, param):
    return t**2


def _op_softmax(t, rng, param):
    return t.softmax(axis=-1)


def _op_log_softmax(t, rng, param):
    return t.log_softmax(axis=-1)


def _op_sum(t, rng, param):
    return t.sum(axis=param % 2, keepdims=True)


def _op_mean(t, rng, param):
    return t.mean(axis=param % 2, keepdims=True)


def _op_max(t, rng, param):
    return t.max(axis=param % 2, keepdims=True)


def _op_slice(t, rng, param):
    rows, cols = t.shape
    if param % 2 == 0:
        return t[:, : max(1, (cols + 1) // 2)]
    return t[:, :: 2] if cols > 1 else t[:, :]


def _op_gather(t, rng, param):
    rows = t.shape[0]
    index = rng.integers(0, rows, size=rows + 1)  # repeats exercise np.add.at
    return t[index]


def _op_matmul(t, rng, param):
    cols = t.shape[1]
    aux = rng.normal(size=(cols, 2 + param % 3)) * 0.5
    return t @ Tensor(aux)


def _op_add_broadcast(t, rng, param):
    aux = rng.normal(size=(1, t.shape[1])) * 0.5
    return t + Tensor(aux)


def _op_mul_broadcast(t, rng, param):
    aux = rng.normal(size=(t.shape[0], 1)) * 0.5 + 1.0
    return t * Tensor(aux)


def _op_div(t, rng, param):
    aux = rng.normal(size=(1, t.shape[1]))
    return t / (Tensor(aux * aux) + 1.5)


def _op_rsub(t, rng, param):
    return 1.5 - t


def _op_where(t, rng, param):
    cond = rng.random(t.shape) < 0.5
    aux = rng.normal(size=t.shape) * 0.5
    return Tensor.where(cond, t, Tensor(aux))


def _op_concat(t, rng, param):
    aux = rng.normal(size=(1, t.shape[1])) * 0.5
    return Tensor.concatenate([t, t * 0.5 + Tensor(aux)], axis=1)


def _op_stack(t, rng, param):
    return Tensor.stack([t, t + 1.0], axis=0).mean(axis=0)


def _op_reshape(t, rng, param):
    rows, cols = t.shape
    return t.reshape(rows * cols).reshape(rows, cols)


def _op_transpose(t, rng, param):
    return t.transpose()


def _op_lstm_cell(t, rng, param):
    batch, cols = t.shape
    w = Tensor(rng.normal(size=(cols, 4 * _HIDDEN)) * 0.5)
    h0 = Tensor(rng.normal(size=(batch, _HIDDEN)) * 0.5)
    c0 = Tensor(rng.normal(size=(batch, _HIDDEN)) * 0.5)
    mask = None
    if param % 2:
        mask = rng.random(batch) < 0.75
        mask[0] = True
    h1, c1 = Tensor.lstm_cell_fused(t @ w, h0, c0, mask)
    return h1 + c1 * 0.5


def _op_gru_cell(t, rng, param):
    batch, cols = t.shape
    w_i = Tensor(rng.normal(size=(cols, 3 * _HIDDEN)) * 0.5)
    w_h = Tensor(rng.normal(size=(cols, 3 * _HIDDEN)) * 0.5)
    h0 = Tensor(rng.normal(size=(batch, _HIDDEN)) * 0.5)
    mask = None
    if param % 2:
        mask = rng.random(batch) < 0.75
        mask[0] = True
    return Tensor.gru_cell_fused(t @ w_i, t @ w_h, h0, mask)


def _scan_inputs(t, rng, gates_per_step: int):
    batch, cols = t.shape
    projections = [
        t @ Tensor(rng.normal(size=(cols, gates_per_step * _HIDDEN)) * 0.5)
        for _ in range(_TIME)
    ]
    gi = Tensor.stack(projections, axis=1)  # (batch, _TIME, gates*_HIDDEN)
    w_hh = Tensor(rng.normal(size=(gates_per_step * _HIDDEN, _HIDDEN)) * 0.4)
    mask = rng.random((batch, _TIME)) < 0.8
    mask[:, 0] = True
    return gi, w_hh, mask


def _op_lstm_scan(t, rng, param):
    gi, w_hh, mask = _scan_inputs(t, rng, 4)
    return Tensor.lstm_scan_fused(gi, w_hh, mask).mean(axis=1)


def _op_gru_scan(t, rng, param):
    gi, w_hh, mask = _scan_inputs(t, rng, 3)
    return Tensor.gru_scan_fused(gi, w_hh, mask).mean(axis=1)


OP_VOCABULARY: dict[str, Callable] = {
    "tanh": _op_tanh,
    "sigmoid": _op_sigmoid,
    "relu": _op_relu,
    "exp": _op_exp,
    "log": _op_log,
    "abs": _op_abs,
    "square": _op_square,
    "softmax": _op_softmax,
    "log_softmax": _op_log_softmax,
    "sum": _op_sum,
    "mean": _op_mean,
    "max": _op_max,
    "slice": _op_slice,
    "gather": _op_gather,
    "matmul": _op_matmul,
    "add_broadcast": _op_add_broadcast,
    "mul_broadcast": _op_mul_broadcast,
    "div": _op_div,
    "rsub": _op_rsub,
    "where": _op_where,
    "concat": _op_concat,
    "stack": _op_stack,
    "reshape": _op_reshape,
    "transpose": _op_transpose,
    "lstm_cell": _op_lstm_cell,
    "gru_cell": _op_gru_cell,
    "lstm_scan": _op_lstm_scan,
    "gru_scan": _op_gru_scan,
}

RECURRENT_OPS = ("lstm_cell", "gru_cell", "lstm_scan", "gru_scan")


@dataclass(frozen=True)
class OpCall:
    """One vocabulary op with its small integer parameter."""

    name: str
    param: int = 0


@dataclass(frozen=True)
class Program:
    """A seeded straight-line program; the seed pins input and constants."""

    seed: int
    shape: tuple[int, int]
    ops: tuple[OpCall, ...]

    def describe(self) -> str:
        chain = " -> ".join(f"{op.name}({op.param})" for op in self.ops)
        return f"Program(seed={self.seed}, shape={self.shape}): x -> {chain or 'x'}"


def generate_program(
    seed: int,
    max_ops: int = 6,
    include_recurrent: bool = True,
) -> Program:
    """Generate the program for ``seed`` (pure function of its arguments)."""
    rng = np.random.default_rng(seed)
    shape = (int(rng.integers(1, 4)), int(rng.integers(2, 5)))
    names = [n for n in OP_VOCABULARY if include_recurrent or n not in RECURRENT_OPS]
    count = int(rng.integers(1, max_ops + 1))
    ops = []
    for _ in range(count):
        # Bias toward the fused recurrent macros: they are the ops with
        # hand-written backwards, i.e. where the bugs live.
        if include_recurrent and rng.random() < 0.25:
            name = RECURRENT_OPS[int(rng.integers(len(RECURRENT_OPS)))]
        else:
            name = names[int(rng.integers(len(names)))]
        ops.append(OpCall(name, int(rng.integers(0, 8))))
    return Program(seed, shape, tuple(ops))


def build_function(program: Program):
    """Return ``(fn, input_arrays)`` for the differential oracle."""

    def fn(x: Tensor) -> Tensor:
        t = x
        for index, op in enumerate(program.ops):
            t = OP_VOCABULARY[op.name](t, _aux_rng(program.seed, index), op.param)
        return t

    x_data = np.random.default_rng([program.seed, 987]).normal(
        size=program.shape
    ) * 0.8
    return fn, (x_data,)


def check_program(program: Program, **tolerances) -> DiffReport:
    """Differential-check one program (fused vs composed vs finite differences)."""
    fn, arrays = build_function(program)
    report = differential_check(
        fn, arrays, name=program.describe(), input_names=("x",), **tolerances
    )
    return report


def shrink(
    program: Program,
    is_failing: Callable[[Program], bool] | None = None,
) -> Program:
    """Greedily delete ops while the program still fails (ddmin-lite).

    Every subsequence of a straight-line program is itself a valid program
    (all ops are shape-agnostic), so shrinking is a sequence-minimization:
    repeatedly drop any single op whose removal preserves the failure.
    The result is 1-minimal — no single further deletion still fails.
    """
    if is_failing is None:
        is_failing = lambda p: not check_program(p).passed  # noqa: E731
    ops = list(program.ops)
    changed = True
    while changed:
        changed = False
        for index in range(len(ops)):
            candidate = replace(
                program, ops=tuple(ops[:index] + ops[index + 1 :])
            )
            if is_failing(candidate):
                del ops[index]
                changed = True
                break
    return replace(program, ops=tuple(ops))


@dataclass
class FuzzFailure:
    """A failing program plus its shrunken minimal reproduction."""

    program: Program
    report: DiffReport
    shrunken: Program
    shrunken_report: DiffReport

    def format(self) -> str:
        return "\n".join(
            [
                f"original: {self.program.describe()}",
                f"shrunken: {self.shrunken.describe()}",
                self.shrunken_report.format(),
            ]
        )


def fuzz(
    count: int = 200,
    seed_base: int = 0,
    max_ops: int = 6,
    include_recurrent: bool = True,
    shrink_failures: bool = True,
    **tolerances,
) -> list[FuzzFailure]:
    """Check ``count`` seeded programs; returns the (shrunken) failures."""
    failures: list[FuzzFailure] = []
    for offset in range(count):
        program = generate_program(
            seed_base + offset, max_ops=max_ops, include_recurrent=include_recurrent
        )
        report = check_program(program, **tolerances)
        if report.passed:
            continue
        shrunken = (
            shrink(program, lambda p: not check_program(p, **tolerances).passed)
            if shrink_failures
            else program
        )
        failures.append(
            FuzzFailure(
                program,
                report,
                shrunken,
                check_program(shrunken, **tolerances),
            )
        )
    return failures


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="Differential autograd fuzzer (fused vs composed vs "
        "finite differences).",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the fixed 200-program smoke tier (seeds 0..199)",
    )
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--seed-base", type=int, default=0)
    parser.add_argument("--max-ops", type=int, default=6)
    parser.add_argument(
        "--no-recurrent",
        action="store_true",
        help="exclude the fused recurrent macro ops",
    )
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    count = 200 if args.smoke else args.count
    seed_base = 0 if args.smoke else args.seed_base

    failures = fuzz(
        count=count,
        seed_base=seed_base,
        max_ops=args.max_ops,
        include_recurrent=not args.no_recurrent,
    )
    if args.verbose or failures:
        print(
            f"fuzz: {count} programs from seed {seed_base}, "
            f"{len(failures)} failure(s)"
        )
    for failure in failures:
        print()
        print(failure.format())
    if not failures:
        print(
            f"OK: {count} random programs agree across "
            "fused/composed/fd/no-tape"
        )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
