"""Multi-layer perceptron with configurable activations."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from ..module import Module
from ..tensor import Tensor
from .linear import Linear

__all__ = ["MLP"]

_ACTIVATIONS: dict[str, Callable[[Tensor], Tensor]] = {
    "relu": lambda x: x.relu(),
    "tanh": lambda x: x.tanh(),
    "sigmoid": lambda x: x.sigmoid(),
    "identity": lambda x: x,
}


class MLP(Module):
    """A stack of Linear layers with a hidden activation.

    Parameters
    ----------
    dims:
        Layer widths including input and output, e.g. ``[64, 32, 1]``.
    activation:
        Hidden-layer nonlinearity name.
    output_activation:
        Nonlinearity applied after the final layer (``"identity"`` for raw
        scores, ``"sigmoid"`` for probabilities as in RAPID's re-ranker head).
    """

    def __init__(
        self,
        dims: Sequence[int],
        activation: str = "relu",
        output_activation: str = "identity",
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if len(dims) < 2:
            raise ValueError("MLP needs at least input and output dims")
        if activation not in _ACTIVATIONS or output_activation not in _ACTIVATIONS:
            raise ValueError(
                f"unknown activation; choose from {sorted(_ACTIVATIONS)}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.dims = list(dims)
        self._activation = activation
        self._output_activation = output_activation
        self.layers: list[Linear] = []
        for index, (d_in, d_out) in enumerate(zip(dims[:-1], dims[1:])):
            layer = Linear(d_in, d_out, rng=rng)
            self.layers.append(layer)
            setattr(self, f"layer_{index}", layer)

    def forward(self, x: Tensor) -> Tensor:
        hidden_fn = _ACTIVATIONS[self._activation]
        out_fn = _ACTIVATIONS[self._output_activation]
        for layer in self.layers[:-1]:
            x = hidden_fn(layer(x))
        return out_fn(self.layers[-1](x))
