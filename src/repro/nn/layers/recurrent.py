"""Recurrent layers: LSTM / GRU cells, sequence wrappers, and Bi-LSTM.

RAPID uses a Bi-LSTM for the listwise relevance estimator (paper Sec. III-B)
and unidirectional LSTMs for the per-topic behavior encoders (Sec. III-C);
DLCM uses a GRU.  All cells follow the standard Hochreiter-Schmidhuber / Cho
formulations with orthogonal recurrent and Xavier input weights.

Hot-path structure: the input projection ``x W_ih^T + b`` for *all*
timesteps is computed in one batched matmul, and the whole recurrence then
runs as a single fused autograd node (``repro.nn.kernels``); a bare cell
call is one fused step.  The composed-op graph these kernels replace is a
test reference in ``repro.testing.reference``, swapped in by
``kernels.use_fused(False)``.  Each layer has one forward: inside a
float32 inference block (``Module.infer``) the same scan ops run the
tape-free kernels of ``repro.nn.inference``.
"""

from __future__ import annotations

import numpy as np

from .. import init, kernels
from ..module import Module, Parameter
from ..tensor import Tensor

__all__ = ["LSTMCell", "GRUCell", "LSTM", "GRU", "BiLSTM"]


class LSTMCell(Module):
    """A single LSTM step: (x_t, h_{t-1}, c_{t-1}) -> (h_t, c_t)."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates packed as [input, forget, cell, output] along the output axis.
        self.w_ih = Parameter(init.xavier_uniform((4 * hidden_size, input_size), rng))
        self.w_hh = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(4)]
            )
        )
        bias = np.zeros(4 * hidden_size)
        bias[hidden_size : 2 * hidden_size] = 1.0  # forget-gate bias trick
        self.bias = Parameter(bias)

    def forward(
        self, x: Tensor, state: tuple[Tensor, Tensor] | None = None
    ) -> tuple[Tensor, Tensor]:
        batch = x.shape[0]
        if state is None:
            h = c = kernels.zero_state(batch, self.hidden_size, dtype=x.data.dtype)
        else:
            h, c = state
        gates = x @ self.w_ih.T + h @ self.w_hh.T + self.bias
        return Tensor.lstm_cell_fused(gates, h, c)


class GRUCell(Module):
    """A single GRU step: (x_t, h_{t-1}) -> h_t."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        # Gates packed as [reset, update, new].
        self.w_ih = Parameter(init.xavier_uniform((3 * hidden_size, input_size), rng))
        self.w_hh = Parameter(
            np.concatenate(
                [init.orthogonal((hidden_size, hidden_size), rng) for _ in range(3)]
            )
        )
        self.bias = Parameter(np.zeros(3 * hidden_size))

    def forward(self, x: Tensor, h: Tensor | None = None) -> Tensor:
        batch = x.shape[0]
        if h is None:
            h = kernels.zero_state(batch, self.hidden_size, dtype=x.data.dtype)
        gi = x @ self.w_ih.T + self.bias
        gh = h @ self.w_hh.T
        return Tensor.gru_cell_fused(gi, gh, h)


class LSTM(Module):
    """Runs an :class:`LSTMCell` over a (batch, time, features) sequence.

    ``mask`` (batch, time) marks valid timesteps; padded steps carry the
    previous hidden state forward so that the final state is the state after
    the last *valid* input — this is how RAPID takes ``t_j = z_{j,D}`` for
    variable-length topical behavior sequences.

    The input projection for every timestep is one batched matmul; the
    recurrence itself is one fused scan node.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def input_gates(self, x: Tensor) -> Tensor:
        """(batch, time, 4*hidden) input pre-activations ``x W_ih^T + b``."""
        batch, time, features = x.shape
        cell = self.cell
        return (
            x.reshape(batch * time, features) @ cell.w_ih.T + cell.bias
        ).reshape(batch, time, 4 * self.hidden_size)

    def forward(
        self, x: Tensor, mask: np.ndarray | None = None
    ) -> tuple[Tensor, Tensor]:
        """Return (outputs (batch, time, hidden), final hidden (batch, hidden))."""
        outputs = Tensor.lstm_scan_fused(self.input_gates(x), self.cell.w_hh, mask)
        return outputs, outputs[:, -1, :]


class GRU(Module):
    """Runs a :class:`GRUCell` over a (batch, time, features) sequence."""

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        self.cell = GRUCell(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size

    def forward(
        self, x: Tensor, mask: np.ndarray | None = None
    ) -> tuple[Tensor, Tensor]:
        batch, time, features = x.shape
        cell = self.cell
        gi = (
            x.reshape(batch * time, features) @ cell.w_ih.T + cell.bias
        ).reshape(batch, time, 3 * self.hidden_size)
        outputs = Tensor.gru_scan_fused(gi, cell.w_hh, mask)
        return outputs, outputs[:, -1, :]


class BiLSTM(Module):
    """Bidirectional LSTM; outputs concatenated forward/backward states.

    This is the listwise relevance encoder of RAPID: each item's
    representation ``h_i = [h_fwd_i, h_bwd_i]`` (paper Sec. III-B) sees the
    listwise context both before and after position ``i``.  Both
    directions run as one op (:func:`repro.nn.kernels.bilstm_scan`): two
    fused scans on the tape, one hidden-axis packed scan when serving.
    """

    def __init__(
        self,
        input_size: int,
        hidden_size: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.forward_lstm = LSTM(input_size, hidden_size, rng=rng)
        self.backward_lstm = LSTM(input_size, hidden_size, rng=rng)
        self.hidden_size = hidden_size
        self.output_size = 2 * hidden_size

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        """Return (batch, time, 2*hidden) contextual representations."""
        return Tensor.bilstm_scan(
            self.forward_lstm.input_gates(x),
            self.backward_lstm.input_gates(x[:, ::-1, :]),
            self.forward_lstm.cell.w_hh,
            self.backward_lstm.cell.w_hh,
            mask,
        )
