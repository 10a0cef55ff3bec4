"""Reverse-mode automatic differentiation on numpy arrays.

This module is the lowest layer of the ``repro.nn`` substrate.  The paper's
implementation uses PyTorch; since PyTorch is not available in this
environment, we implement a small but complete define-by-run autograd engine
with the same semantics needed by RAPID and all the baselines: broadcasting
arithmetic, matrix multiplication, elementwise nonlinearities, reductions,
indexing, concatenation/stacking, and softmax.

Dispatch is table-driven: every differentiable primitive is an
:class:`OpDef` — a pure ndarray ``forward`` plus a ``vjp`` (vector-Jacobian
product) — registered in :data:`OP_TABLE` under its op name.  The
:class:`Tensor` methods are thin dispatchers through :func:`Tensor._apply`,
which runs the forward on the raw arrays and only materialises a graph node
(parents + backward closure) when a tape is active; with gradients disabled
the result passes straight through with zero autograd bookkeeping.
Composite ops (``mean``, ``__sub__``, ``sqrt``) stay compositions of
primitives so their backward rules need no separate entries.

Serving runs the same ops inside an :class:`infer_mode` block (entered by
``Module.infer``): no tape, eval semantics, and float32 data, with float64
inputs such as the parameters cast per call.  :func:`use_infer` selects
float64 for such blocks, which then equal a ``no_grad`` forward bit for
bit.

Gradients are accumulated in ``Tensor.grad`` by :meth:`Tensor.backward`,
which performs a topological sort of the recorded computation graph and runs
each node's backward closure exactly once, releasing the graph as it goes:
only leaf gradients survive the call.  All backward rules are verified
against central finite differences in ``tests/test_nn_tensor.py``.

Profiling hook: every differentiable op dispatches through the method named
in :data:`PROFILED_OPS`; ``repro.obs.autograd`` instruments exactly that
list (timing forwards and wrapping the ``_backward`` closures each op
registers) when the opt-in op profiler is enabled.  Nothing here is patched
or slowed down unless the profiler is turned on.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "as_tensor",
    "no_grad",
    "is_grad_enabled",
    "infer_mode",
    "is_inferring",
    "use_infer",
    "register_custom_op",
    "OpDef",
    "OP_TABLE",
    "register_op",
    "PROFILED_OPS",
    "op_function",
    "install_op_wrappers",
    "restore_ops",
]


_FLOAT64 = np.dtype(np.float64)
_FLOAT32 = np.dtype(np.float32)


class _GradState(threading.local):
    """Per-thread autograd state (fresh defaults in every thread).

    ``enabled`` is the tape switch.  Inside an :class:`infer_mode` block
    ``inferring`` is set, the tape is off, and new Tensor data is stored in
    ``dtype`` (float32 unless :func:`use_infer` selects float64).
    """

    def __init__(self) -> None:
        self.enabled = True
        self.inferring = False
        self.dtype = _FLOAT64


_grad_state = _GradState()

# Tensor dtype of inference blocks.  Serving runs float32; tests select the
# float64 training kernels with use_infer(False).
_serving_dtype = _FLOAT32

# The op-dispatch surface of the autograd engine: one entry per method that
# records a graph node.  ``repro.obs.autograd.enable_op_profiler`` hooks
# these by name; keep this list in sync when adding ops.
PROFILED_OPS: tuple[str, ...] = (
    "__add__",
    "__radd__",
    "__neg__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
    "__matmul__",
    "__getitem__",
    "exp",
    "log",
    "tanh",
    "sigmoid",
    "relu",
    "clip",
    "abs",
    "sum",
    "mean",
    "max",
    "reshape",
    "transpose",
    "concatenate",
    "stack",
    "where",
    "softmax",
    "log_softmax",
)


class no_grad:
    """Context manager that disables graph construction (like torch.no_grad).

    Reentrant and nesting-safe: each ``__enter__`` pushes the prior state
    onto a per-instance stack, so a single instance can be entered
    recursively (or shared across nested ``with`` blocks) and each exit
    restores exactly what its matching entry saw.  The underlying flag is
    thread-local — disabling gradients on one thread never leaks into
    concurrently-running forwards on another.
    """

    def __init__(self) -> None:
        self._stack: list[bool] = []

    def __enter__(self) -> "no_grad":
        self._stack.append(_grad_state.enabled)
        _grad_state.enabled = False
        return self

    def __exit__(self, *exc_info) -> None:
        _grad_state.enabled = self._stack.pop()


def is_grad_enabled() -> bool:
    """Return whether new operations are recorded in the autograd graph."""
    return _grad_state.enabled


class infer_mode:
    """Context manager for serving forwards (what ``Module.infer`` enters).

    Inside the block no tape is recorded, modules report
    ``training == False`` (eval semantics without touching any module), and
    new Tensor data is float32: ops cast float64 inputs (the parameters)
    per call and the fused scans run the tape-free kernels of
    :mod:`repro.nn.inference`.  Under ``use_infer(False)`` the block keeps
    float64 and the training kernels, so its outputs equal a ``no_grad``
    eval-mode forward bit for bit.  Reentrant and thread-local like
    :class:`no_grad`.
    """

    def __init__(self) -> None:
        self._stack: list[tuple] = []

    def __enter__(self) -> "infer_mode":
        state = _grad_state
        self._stack.append((state.enabled, state.inferring, state.dtype))
        state.enabled, state.inferring, state.dtype = False, True, _serving_dtype
        return self

    def __exit__(self, *exc_info) -> None:
        state = _grad_state
        state.enabled, state.inferring, state.dtype = self._stack.pop()


def is_inferring() -> bool:
    """Whether this thread is inside an :class:`infer_mode` block."""
    return _grad_state.inferring


@contextmanager
def use_infer(value: bool):
    """Select the dtype of inference blocks for a block (a test selector).

    ``True`` (the default) is float32 serving; ``False`` runs inference
    blocks in float64 on the training kernels — the reference the golden
    slates and the benchmark's drift check compare against.
    """
    global _serving_dtype
    previous, _serving_dtype = _serving_dtype, (_FLOAT32 if value else _FLOAT64)
    try:
        yield
    finally:
        _serving_dtype = previous


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` back down to ``shape`` (inverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size 1 in the original shape.
    axes = tuple(i for i, dim in enumerate(shape) if dim == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _released_backward(grad: np.ndarray) -> None:
    """The closure of a node whose backward already ran and was released."""
    raise RuntimeError(
        "backward through a graph that was already released: each graph "
        "supports one backward pass"
    )


class OpDef:
    """A differentiable primitive: pure ndarray forward + vector-Jacobian product.

    ``forward(params, *arrays) -> (out_data, residual)`` computes the op on
    raw ndarrays; ``residual`` is whatever intermediate the backward pass
    wants saved (or ``None``).  ``vjp(grad, out_data, residual, params,
    arrays) -> grads`` returns one gradient array per input (``None`` for
    inputs with no gradient).  Neither side ever sees a :class:`Tensor` —
    the table is the backend-independent contract the dispatcher, the
    differential oracle, and the inference path all share.
    """

    __slots__ = ("name", "forward", "vjp")

    def __init__(
        self,
        name: str,
        forward: Callable,
        vjp: Callable,
    ) -> None:
        self.name = name
        self.forward = forward
        self.vjp = vjp

    def __repr__(self) -> str:
        return f"OpDef({self.name!r})"


#: Central name -> (forward, vjp) registry for every autograd primitive.
OP_TABLE: dict[str, OpDef] = {}


def register_op(name: str, forward: Callable, vjp: Callable) -> OpDef:
    """Register a primitive in :data:`OP_TABLE` (returns the :class:`OpDef`)."""
    opdef = OpDef(name, forward, vjp)
    OP_TABLE[name] = opdef
    return opdef


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation.

    Parameters
    ----------
    data:
        Array-like payload; converted to ``float64`` so that gradient
        checks against finite differences are tight (to float32 inside a
        float32 :class:`infer_mode` block).
    requires_grad:
        Whether gradients should flow to this tensor.
    """

    __slots__ = (
        "data", "grad", "requires_grad", "_backward", "_parents", "__weakref__"
    )

    def __init__(self, data, requires_grad: bool = False) -> None:
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=_grad_state.dtype)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad) and _grad_state.enabled
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple["Tensor", ...] = ()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_note})"

    def item(self) -> float:
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying array (not a copy)."""
        return self.data

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _result(data) -> "Tensor":
        """Wrap an op's output without a cast.

        Results keep the dtype their kernel computed, so a float64 upcast
        inside a float32 inference block stays visible (and testable)
        rather than being silently cast back.
        """
        out = Tensor.__new__(Tensor)
        out.data = np.asarray(data)
        out.grad = None
        out.requires_grad = False
        out._backward = None
        out._parents = ()
        return out

    @staticmethod
    def _make(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward: Callable[[np.ndarray], None],
    ) -> "Tensor":
        out = Tensor._result(data)
        if _grad_state.enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    @staticmethod
    def _apply(name: str, inputs: tuple["Tensor", ...], params: tuple = ()) -> "Tensor":
        """Dispatch ``name`` through :data:`OP_TABLE`.

        Runs the table forward on the raw input arrays; when a tape is
        active (gradients enabled and some input requires them) the result
        becomes a graph node whose backward closure replays the table's
        ``vjp``, otherwise the output passes straight through with no
        parents, no closure, and no residual retention.
        """
        opdef = OP_TABLE[name]
        state = _grad_state
        dtype = state.dtype
        if dtype is _FLOAT64:
            arrays = tuple([t.data for t in inputs])
        else:
            # float32 inference block: parameters (and any other float64
            # array) are cast per call, so in-place updates are always
            # served, and inputs are made contiguous, which keeps matmul on
            # BLAS (a transposed float32 weight falls off it, and its
            # fallback loop is many times slower on subnormal inputs).
            arrays = tuple([np.ascontiguousarray(t.data, dtype=dtype) for t in inputs])
        out_data, residual = opdef.forward(params, *arrays)
        out = Tensor._result(out_data)
        if state.enabled and any([t.requires_grad for t in inputs]):
            vjp = opdef.vjp

            def backward(grad: np.ndarray) -> None:
                grads = vjp(grad, out_data, residual, params, arrays)
                for tensor, g in zip(inputs, grads):
                    if g is not None:
                        tensor._accumulate(g)

            out.requires_grad = True
            out._parents = inputs
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = np.array(grad, dtype=np.float64, copy=True)
        else:
            self.grad = self.grad + grad

    def _accumulate_owned(self, grad: np.ndarray) -> None:
        """Accumulate a gradient buffer whose ownership transfers to us.

        Skips the defensive copy :meth:`_accumulate` makes on first
        accumulation.  Only call with a float64 array the caller freshly
        allocated and will never touch again (the fused kernels use this
        for their scratch gradient buffers).
        """
        if not self.requires_grad:
            return
        if self.grad is None:
            self.grad = grad
        else:
            self.grad = self.grad + grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        The graph is released as the walk goes: once a node's closure has
        run, its closure (with the residuals it holds), its parents and its
        gradient are dropped, so only leaf gradients remain afterwards.  A
        second backward through a released node raises ``RuntimeError``.
        """
        if grad is None:
            if self.data.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        while topo:
            node = topo.pop()
            closure = node._backward
            if closure is None:
                continue  # a leaf or a constant: nothing to release
            if node.grad is not None:
                closure(node.grad)
            # Release the node only after its own closure ran: wrappers
            # (sanitizer, op profiler) read the parents' grads right after it.
            node._backward = _released_backward
            node._parents = ()
            node.grad = None

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Arithmetic (thin dispatchers into OP_TABLE)
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        return Tensor._apply("add", (self, as_tensor(other)))

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        return Tensor._apply("neg", (self,))

    def __sub__(self, other) -> "Tensor":
        return self + (-as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        return Tensor._apply("mul", (self, as_tensor(other)))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        return Tensor._apply("div", (self, as_tensor(other)))

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not isinstance(exponent, (int, float)):
            raise TypeError("only scalar exponents are supported")
        return Tensor._apply("pow", (self,), (exponent,))

    def __matmul__(self, other) -> "Tensor":
        return Tensor._apply("matmul", (self, as_tensor(other)))

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        return Tensor._apply("exp", (self,))

    def log(self) -> "Tensor":
        return Tensor._apply("log", (self,))

    def tanh(self) -> "Tensor":
        return Tensor._apply("tanh", (self,))

    def sigmoid(self) -> "Tensor":
        return Tensor._apply("sigmoid", (self,))

    def relu(self) -> "Tensor":
        return Tensor._apply("relu", (self,))

    def sqrt(self) -> "Tensor":
        return self**0.5

    def clip(self, low: float, high: float) -> "Tensor":
        return Tensor._apply("clip", (self,), (low, high))

    def abs(self) -> "Tensor":
        return Tensor._apply("abs", (self,))

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Tensor._apply("sum", (self,), (axis, keepdims))

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.data.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        return Tensor._apply("max", (self,), (axis, keepdims))

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return Tensor._apply("reshape", (self,), (shape,))

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return Tensor._apply("transpose", (self,), (axes,))

    def swapaxes(self, a: int, b: int) -> "Tensor":
        axes = list(range(self.ndim))
        axes[a], axes[b] = axes[b], axes[a]
        return self.transpose(tuple(axes))

    def __getitem__(self, key) -> "Tensor":
        return Tensor._apply("getitem", (self,), (key,))

    # ------------------------------------------------------------------
    # Combination
    # ------------------------------------------------------------------
    @staticmethod
    def concatenate(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = tuple(as_tensor(t) for t in tensors)
        return Tensor._apply("concatenate", tensors, (axis,))

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        tensors = tuple(as_tensor(t) for t in tensors)
        return Tensor._apply("stack", tensors, (axis,))

    @staticmethod
    def where(condition: np.ndarray, a: "Tensor", b: "Tensor") -> "Tensor":
        cond = np.asarray(condition, dtype=bool)
        return Tensor._apply("where", (as_tensor(a), as_tensor(b)), (cond,))

    # ------------------------------------------------------------------
    # Softmax (fused for numerical stability)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        return Tensor._apply("softmax", (self,), (axis,))

    def log_softmax(self, axis: int = -1) -> "Tensor":
        return Tensor._apply("log_softmax", (self,), (axis,))


# ----------------------------------------------------------------------
# Primitive forward / vjp definitions
# ----------------------------------------------------------------------
def _expand_reduced(grad: np.ndarray, axis, keepdims: bool, ndim: int) -> np.ndarray:
    """Re-insert axes removed by a non-keepdims reduction."""
    g = np.asarray(grad)
    if axis is not None and not keepdims:
        axes = axis if isinstance(axis, tuple) else (axis,)
        axes = tuple(a % ndim for a in axes)
        for a in sorted(axes):
            g = np.expand_dims(g, a)
    return g


def _add_forward(params, a, b):
    return a + b, None


def _add_vjp(grad, out, res, params, arrays):
    a, b = arrays
    return _unbroadcast(grad, a.shape), _unbroadcast(grad, b.shape)


def _neg_forward(params, a):
    return -a, None


def _neg_vjp(grad, out, res, params, arrays):
    return (-grad,)


def _mul_forward(params, a, b):
    return a * b, None


def _mul_vjp(grad, out, res, params, arrays):
    a, b = arrays
    return (
        _unbroadcast(grad * b, a.shape),
        _unbroadcast(grad * a, b.shape),
    )


def _div_forward(params, a, b):
    return a / b, None


def _div_vjp(grad, out, res, params, arrays):
    a, b = arrays
    return (
        _unbroadcast(grad / b, a.shape),
        _unbroadcast(-grad * a / (b**2), b.shape),
    )


def _pow_forward(params, a):
    (exponent,) = params
    return a**exponent, None


def _pow_vjp(grad, out, res, params, arrays):
    (exponent,) = params
    (a,) = arrays
    return (grad * exponent * a ** (exponent - 1),)


def _matmul_forward(params, a, b):
    return a @ b, None


def _matmul_vjp(grad, out, res, params, arrays):
    a, b = arrays
    if a.ndim == 1 and b.ndim == 1:
        return grad * b, grad * a
    if a.ndim == 1:  # (k,) @ (..., k, n) -> (..., n)
        ga = (grad[..., None, :] * b).sum(axis=-1)
        gb = a[:, None] * grad[..., None, :]
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)
    if b.ndim == 1:  # (..., m, k) @ (k,) -> (..., m)
        ga = grad[..., :, None] * b
        gb = (grad[..., :, None] * a).sum(axis=tuple(range(a.ndim - 1)))
        return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)
    ga = grad @ np.swapaxes(b, -1, -2)
    gb = np.swapaxes(a, -1, -2) @ grad
    return _unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape)


def _exp_forward(params, a):
    out = np.exp(a)
    return out, None


def _exp_vjp(grad, out, res, params, arrays):
    return (grad * out,)


def _log_forward(params, a):
    return np.log(a), None


def _log_vjp(grad, out, res, params, arrays):
    (a,) = arrays
    return (grad / a,)


def _tanh_forward(params, a):
    return np.tanh(a), None


def _tanh_vjp(grad, out, res, params, arrays):
    return (grad * (1.0 - out**2),)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic ``exp(min(x, 0)) / (1 + exp(-|x|))``.

    Neither exp overflows.  For ``x < 0``, ``-|x| == x`` exactly, so this
    equals the two-branch ``where(x >= 0, 1, e) / (1 + e)`` form bit for
    bit on every finite input, at about half its cost.  The fused
    recurrent kernels call it too, which keeps them bitwise equal to the
    composed graph.
    """
    numerator = np.minimum(x, 0.0)
    np.exp(numerator, out=numerator)
    decay = np.abs(x)
    np.negative(decay, out=decay)
    np.exp(decay, out=decay)
    decay += 1.0
    np.divide(numerator, decay, out=numerator)
    return numerator


def _sigmoid_forward(params, a):
    return _sigmoid(a), None


def _sigmoid_vjp(grad, out, res, params, arrays):
    return (grad * out * (1.0 - out),)


def _relu_forward(params, a):
    mask = a > 0
    return a * mask, mask


def _relu_vjp(grad, out, res, params, arrays):
    return (grad * res,)


def _clip_forward(params, a):
    low, high = params
    return np.clip(a, low, high), None


def _clip_vjp(grad, out, res, params, arrays):
    low, high = params
    (a,) = arrays
    mask = (a >= low) & (a <= high)
    return (grad * mask,)


def _abs_forward(params, a):
    return np.abs(a), None


def _abs_vjp(grad, out, res, params, arrays):
    (a,) = arrays
    return (grad * np.sign(a),)


def _sum_forward(params, a):
    axis, keepdims = params
    return a.sum(axis=axis, keepdims=keepdims), None


def _sum_vjp(grad, out, res, params, arrays):
    axis, keepdims = params
    (a,) = arrays
    g = _expand_reduced(grad, axis, keepdims, a.ndim)
    return (np.broadcast_to(g, a.shape).copy(),)


def _max_forward(params, a):
    axis, keepdims = params
    return a.max(axis=axis, keepdims=keepdims), None


def _max_vjp(grad, out, res, params, arrays):
    axis, keepdims = params
    (a,) = arrays
    full = a.max(axis=axis, keepdims=True)
    mask = a == full
    mask = mask / mask.sum(axis=axis, keepdims=True)
    g = _expand_reduced(grad, axis, keepdims, a.ndim)
    return (mask * g,)


def _reshape_forward(params, a):
    (shape,) = params
    return a.reshape(shape), None


def _reshape_vjp(grad, out, res, params, arrays):
    (a,) = arrays
    return (grad.reshape(a.shape),)


def _transpose_forward(params, a):
    (axes,) = params
    return a.transpose(axes), None


def _transpose_vjp(grad, out, res, params, arrays):
    (axes,) = params
    return (grad.transpose(np.argsort(axes)),)


def _getitem_forward(params, a):
    (key,) = params
    return a[key], None


def _getitem_vjp(grad, out, res, params, arrays):
    (key,) = params
    (a,) = arrays
    full = np.zeros_like(a)
    if _is_basic_index(key):
        # Basic indexing selects each element at most once, so the
        # scatter is a plain (much faster) sliced assignment.
        full[key] = grad
    else:
        np.add.at(full, key, grad)
    return (full,)


def _concatenate_forward(params, *arrays):
    (axis,) = params
    return np.concatenate(arrays, axis=axis), None


def _concatenate_vjp(grad, out, res, params, arrays):
    (axis,) = params
    offsets = np.cumsum([0] + [a.shape[axis] for a in arrays])
    grads = []
    for start, stop in zip(offsets[:-1], offsets[1:]):
        index = [slice(None)] * grad.ndim
        index[axis] = slice(start, stop)
        grads.append(grad[tuple(index)])
    return grads


def _stack_forward(params, *arrays):
    (axis,) = params
    return np.stack(arrays, axis=axis), None


def _stack_vjp(grad, out, res, params, arrays):
    (axis,) = params
    return list(np.moveaxis(grad, axis, 0))


def _where_forward(params, a, b):
    (cond,) = params
    return np.where(cond, a, b), None


def _where_vjp(grad, out, res, params, arrays):
    (cond,) = params
    a, b = arrays
    return (
        _unbroadcast(grad * cond, a.shape),
        _unbroadcast(grad * (~cond), b.shape),
    )


def _softmax_forward(params, a):
    (axis,) = params
    shifted = a - a.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True), None


def _softmax_vjp(grad, out, res, params, arrays):
    (axis,) = params
    dot = (grad * out).sum(axis=axis, keepdims=True)
    return (out * (grad - dot),)


def _log_softmax_forward(params, a):
    (axis,) = params
    shifted = a - a.max(axis=axis, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    return shifted - log_z, None


def _log_softmax_vjp(grad, out, res, params, arrays):
    (axis,) = params
    softmax = np.exp(out)
    return (grad - softmax * grad.sum(axis=axis, keepdims=True),)


register_op("add", _add_forward, _add_vjp)
register_op("neg", _neg_forward, _neg_vjp)
register_op("mul", _mul_forward, _mul_vjp)
register_op("div", _div_forward, _div_vjp)
register_op("pow", _pow_forward, _pow_vjp)
register_op("matmul", _matmul_forward, _matmul_vjp)
register_op("exp", _exp_forward, _exp_vjp)
register_op("log", _log_forward, _log_vjp)
register_op("tanh", _tanh_forward, _tanh_vjp)
register_op("sigmoid", _sigmoid_forward, _sigmoid_vjp)
register_op("relu", _relu_forward, _relu_vjp)
register_op("clip", _clip_forward, _clip_vjp)
register_op("abs", _abs_forward, _abs_vjp)
register_op("sum", _sum_forward, _sum_vjp)
register_op("max", _max_forward, _max_vjp)
register_op("reshape", _reshape_forward, _reshape_vjp)
register_op("transpose", _transpose_forward, _transpose_vjp)
register_op("getitem", _getitem_forward, _getitem_vjp)
register_op("concatenate", _concatenate_forward, _concatenate_vjp)
register_op("stack", _stack_forward, _stack_vjp)
register_op("where", _where_forward, _where_vjp)
register_op("softmax", _softmax_forward, _softmax_vjp)
register_op("log_softmax", _log_softmax_forward, _log_softmax_vjp)


def _is_basic_index(key) -> bool:
    """True when ``key`` triggers numpy *basic* indexing (no repeats possible)."""
    if isinstance(key, tuple):
        return all(_is_basic_index(part) for part in key)
    return key is None or key is Ellipsis or isinstance(key, (int, np.integer, slice))


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy if already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


def op_function(name: str) -> tuple[Callable, bool]:
    """Return ``(function, is_static)`` for a :data:`PROFILED_OPS` entry.

    This is the dispatch surface shared by every op-level instrumentation
    layer (the ``repro.obs.autograd`` profiler and the
    ``repro.testing.sanitize`` numerical sanitizer) and by
    ``repro.nn.kernels.use_fused``, which swaps test references in under
    the fused op names: hooks read the current
    attribute — which may already be another layer's wrapper, so stacked
    instrumentation composes — and re-install it via
    :func:`install_op_wrappers` / :func:`restore_ops`.
    """
    raw = Tensor.__dict__[name]
    is_static = isinstance(raw, staticmethod)
    return (raw.__func__ if is_static else raw), is_static


def install_op_wrappers(
    make_wrapper: Callable[[str, Callable], Callable],
) -> dict[str, object]:
    """Wrap every op in :data:`PROFILED_OPS` with ``make_wrapper(name, fn)``.

    Returns the mapping of raw attribute objects (staticmethods preserved)
    to hand back to :func:`restore_ops`.  Wrapping is not idempotent by
    itself — callers guard with their own enabled flag.
    """
    originals: dict[str, object] = {}
    for name in PROFILED_OPS:
        originals[name] = Tensor.__dict__[name]
        fn, is_static = op_function(name)
        wrapped = make_wrapper(name, fn)
        setattr(Tensor, name, staticmethod(wrapped) if is_static else wrapped)
    return originals


def restore_ops(originals: dict[str, object]) -> None:
    """Install raw ``Tensor`` attributes by name, e.g. those captured by
    :func:`install_op_wrappers`."""
    for name, original in originals.items():
        setattr(Tensor, name, original)


def register_custom_op(name: str, fn: Callable) -> None:
    """Attach a fused op to :class:`Tensor` and the profiler surface.

    Custom ops (e.g. the fused recurrent kernels in ``repro.nn.kernels``)
    are implemented outside this module but must dispatch through an
    attribute of :class:`Tensor` so that ``repro.obs.autograd`` can hook
    them by name exactly like the built-in primitives.  The op is installed
    as a staticmethod and appended to :data:`PROFILED_OPS`; ``fn`` should
    build its output(s) with :meth:`Tensor._make` so the backward closure
    participates in profiling.
    """
    global PROFILED_OPS
    setattr(Tensor, name, staticmethod(fn))
    if name not in PROFILED_OPS:
        PROFILED_OPS = PROFILED_OPS + (name,)
