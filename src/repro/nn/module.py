"""Module/Parameter abstractions (the ``torch.nn.Module`` analogue).

A :class:`Module` owns :class:`Parameter` leaves and child modules; it can
enumerate its parameters recursively, toggle train/eval mode, zero gradients,
export/import a flat state dict of numpy arrays, and serve its one
:meth:`Module.forward` through :meth:`Module.infer`.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterator

import numpy as np

from .tensor import Tensor, infer_mode, is_inferring

__all__ = ["Parameter", "Module"]


def _unwrap(value):
    """Recursively strip :class:`Tensor` wrappers to raw ndarrays."""
    if isinstance(value, Tensor):
        return value.data
    if isinstance(value, tuple):
        return tuple(_unwrap(v) for v in value)
    return value


class Parameter(Tensor):
    """A tensor that is a trainable leaf of a module."""

    def __init__(self, data) -> None:
        super().__init__(data, requires_grad=True)


class Module:
    """Base class for all neural network components."""

    def __init__(self) -> None:
        object.__setattr__(self, "_parameters", OrderedDict())
        object.__setattr__(self, "_modules", OrderedDict())
        object.__setattr__(self, "_training", True)

    @property
    def training(self) -> bool:
        """Train-mode flag; always ``False`` inside an inference block."""
        return self._training and not is_inferring()

    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self._parameters[name] = value
        elif isinstance(value, Module):
            self._modules[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Forward dispatch
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def infer(self, *args, **kwargs):
        """Serve :meth:`forward`: no tape, eval semantics, raw arrays out.

        Runs the module's one forward inside an
        :class:`~repro.nn.tensor.infer_mode` block — float32 by default,
        the float64 training kernels under ``use_infer(False)``.
        Positional ndarray arguments become Tensors, keyword arguments
        (masks, flags) pass through untouched, and Tensor outputs come back
        as ndarrays.
        """
        return self._run_infer(self.forward, *args, **kwargs)

    def _run_infer(self, method, *args, **kwargs):
        """:meth:`infer` for any forward-path method of this module."""
        with infer_mode():
            args = tuple(Tensor(a) if isinstance(a, np.ndarray) else a for a in args)
            return _unwrap(method(*args, **kwargs))

    # ------------------------------------------------------------------
    # Parameter access
    # ------------------------------------------------------------------
    def parameters(self) -> Iterator[Parameter]:
        """Yield all trainable parameters, depth-first, without duplicates."""
        seen: set[int] = set()
        for _, param in self.named_parameters():
            if id(param) not in seen:
                seen.add(id(param))
                yield param

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield f"{prefix}{name}", param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix=f"{prefix}{name}.")

    def children(self) -> Iterator["Module"]:
        yield from self._modules.values()

    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode and gradient management
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        object.__setattr__(self, "_training", mode)
        for child in self.children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict(
            (name, param.data.copy()) for name, param in self.named_parameters()
        )

    def load_state_dict(self, state: dict) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(unexpected)}"
            )
        for name, array in state.items():
            param = own[name]
            array = np.asarray(array, dtype=np.float64)
            if array.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.shape}, "
                    f"got {array.shape}"
                )
            param.data = array.copy()
