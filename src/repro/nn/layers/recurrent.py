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
``kernels.use_fused(False)``.
"""

from __future__ import annotations

import numpy as np

from .. import inference, init, kernels
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
            h = kernels.zero_state(batch, self.hidden_size)
            c = kernels.zero_state(batch, self.hidden_size)
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
            h = kernels.zero_state(batch, self.hidden_size)
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

    def forward(
        self, x: Tensor, mask: np.ndarray | None = None
    ) -> tuple[Tensor, Tensor]:
        """Return (outputs (batch, time, hidden), final hidden (batch, hidden))."""
        batch, time, features = x.shape
        cell = self.cell
        gi = (
            x.reshape(batch * time, features) @ cell.w_ih.T + cell.bias
        ).reshape(batch, time, 4 * self.hidden_size)
        outputs = Tensor.lstm_scan_fused(gi, cell.w_hh, mask)
        return outputs, outputs[:, -1, :]

    def infer(
        self, x: np.ndarray, mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        w_ih_t, bias, w_hh_t = inference.lstm_infer_weights(self.cell)
        gi = x @ w_ih_t
        gi += bias
        outputs = inference.lstm_scan_infer(gi, w_hh_t, mask)
        return outputs, outputs[..., -1, :]


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

    def infer(
        self, x: np.ndarray, mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        w_ih_t, bias, w_hh_t = inference.gru_infer_weights(self.cell)
        gi = x @ w_ih_t
        gi += bias
        outputs = inference.gru_scan_infer(gi, w_hh_t, mask)
        return outputs, outputs[..., -1, :]


class BiLSTM(Module):
    """Bidirectional LSTM; outputs concatenated forward/backward states.

    This is the listwise relevance encoder of RAPID: each item's
    representation ``h_i = [h_fwd_i, h_bwd_i]`` (paper Sec. III-B) sees the
    listwise context both before and after position ``i``.
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
        fwd, _ = self.forward_lstm(x, mask=mask)
        rev = x[:, ::-1, :]
        rev_mask = mask[:, ::-1] if mask is not None else None
        bwd, _ = self.backward_lstm(rev, mask=rev_mask)
        bwd = bwd[:, ::-1, :]
        return Tensor.concatenate([fwd, bwd], axis=2)

    def infer(self, x: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Direction-batched inference: both directions in ONE scan.

        When no padding mask is in play (the common serving case: fixed
        candidate lists), both directions are packed into the *hidden*
        axis: state is (B, 2H) ``[fwd | bwd]``, the recurrent matrix is a
        block-diagonal (2H, 8H) with gates grouped by type across
        directions ``[i_f i_b | f_f f_b | o_f o_b | g_f g_b]``, so the
        scan sees a standard single-direction problem with hidden size 2H
        and its per-step matmul is 2-D.  With a real mask the two
        directions need *different* per-step masks (the backward one is
        time-reversed), which the hidden-axis packing cannot express —
        that case stacks the directions on a leading axis instead.
        """
        if inference._effective_mask(mask) is None:
            return self._infer_packed(x)
        return self._infer_stacked(x, mask)

    def _infer_packed(self, x: np.ndarray) -> np.ndarray:
        fcell = self.forward_lstm.cell
        bcell = self.backward_lstm.cell
        hidden = self.hidden_size

        def build(dtype):
            fw_ih, fw_b, fw_hh = inference.lstm_infer_weights(fcell)
            bw_ih, bw_b, bw_hh = inference.lstm_infer_weights(bcell)
            # Block-diagonal recurrent matrix on the packed (gate, dir, H)
            # gate axis: forward h rows feed only forward gate columns.
            w_hh_p = np.zeros((2 * hidden, 4, 2, hidden), dtype=dtype)
            w_hh_p[:hidden, :, 0] = fw_hh.reshape(hidden, 4, hidden)
            w_hh_p[hidden:, :, 1] = bw_hh.reshape(hidden, 4, hidden)
            return fw_ih, fw_b, bw_ih, bw_b, w_hh_p.reshape(2 * hidden, 8 * hidden)

        fw_ih, fw_b, bw_ih, bw_b, w_hh_p = inference.cached_weights(
            self,
            "bilstm_packed",
            (
                fcell.w_ih,
                fcell.w_hh,
                fcell.bias,
                bcell.w_ih,
                bcell.w_hh,
                bcell.bias,
            ),
            build,
        )
        batch, time = x.shape[0], x.shape[1]
        gi_f = x @ fw_ih
        gi_f += fw_b
        gi_b = x[:, ::-1] @ bw_ih
        gi_b += bw_b
        # Interleave per-direction gate blocks into the packed layout via
        # a (gate, dir, H) view: two strided assignments, no fancy index.
        gi_p = np.empty((batch, time, 8 * hidden), dtype=gi_f.dtype)
        gi_v = gi_p.reshape(batch, time, 4, 2, hidden)
        gi_v[:, :, :, 0] = gi_f.reshape(batch, time, 4, hidden)
        gi_v[:, :, :, 1] = gi_b.reshape(batch, time, 4, hidden)
        out = inference.lstm_scan_infer(gi_p, w_hh_p)
        # Packed hidden is [h_fwd | h_bwd-on-reversed-input]; un-reverse
        # the backward half's time axis before concatenating.
        return np.concatenate([out[..., :hidden], out[:, ::-1, hidden:]], axis=-1)

    def _infer_stacked(
        self, x: np.ndarray, mask: np.ndarray | None
    ) -> np.ndarray:
        fcell = self.forward_lstm.cell
        bcell = self.backward_lstm.cell

        def build(dtype):
            fw_ih, fw_b, fw_hh = inference.lstm_infer_weights(fcell)
            bw_ih, bw_b, bw_hh = inference.lstm_infer_weights(bcell)
            # (2, 1, F, 4H): broadcasts against the (2, B) batch dims of the
            # stacked input; (2, H, 4H) matches the scan's (2, B, H) state.
            w_ih2 = np.ascontiguousarray(np.stack([fw_ih, bw_ih])[:, None])
            bias2 = np.ascontiguousarray(np.stack([fw_b, bw_b])[:, None, None])
            w_hh2 = np.ascontiguousarray(np.stack([fw_hh, bw_hh]))
            return w_ih2, bias2, w_hh2

        w_ih2, bias2, w_hh2 = inference.cached_weights(
            self,
            "bilstm",
            (
                fcell.w_ih,
                fcell.w_hh,
                fcell.bias,
                bcell.w_ih,
                bcell.w_hh,
                bcell.bias,
            ),
            build,
        )
        x2 = np.stack([x, x[:, ::-1]])  # (2, batch, time, features)
        gi = x2 @ w_ih2
        gi += bias2
        mask2 = None
        if mask is not None:
            mask = np.asarray(mask, dtype=bool)
            mask2 = np.stack([mask, mask[:, ::-1]])
        out = inference.lstm_scan_infer(gi, w_hh2, mask2)
        return np.concatenate([out[0], out[1][:, ::-1]], axis=-1)
