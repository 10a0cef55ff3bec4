"""Reference implementations that tests compare production paths against.

**Fused recurrent ops.**  Each recurrent function here builds the plain
autograd graph a fused kernel in :mod:`repro.nn.kernels` collapses: gate
slices, sigmoids, tanh, the elementwise state update and the
``new * keep + old * (1 - keep)`` mask blend, one timestep at a time.
Forward values are bitwise equal to the kernels (same primitive formulas
in the same order); gradients differ only in backward summation order.

Production never calls these.  ``repro.nn.kernels.use_fused(False)``
installs :data:`REFERENCE_OPS` under the fused op names on
:class:`~repro.nn.tensor.Tensor` for the duration of a block, so the
differential oracle, the fuzzer and the training-parity tests compare the
kernels against this graph without a branch in the layers.

**Data-parallel training.**  :func:`train_dist_reference` is the lockstep
arithmetic of :func:`repro.dist.train_dist` in one process: per-rank
backwards in rank order, one count-weighted average, one apply.  It has
no fleet, checkpoint or resume; the dist tests hold the process fleet to
it bit for bit.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..core.trainer import apply_step, backward_batch
from ..dist.train import (
    _collect_grads,
    _rank_batches,
    _step_rng,
    _steps_per_epoch,
    average_contributions,
    shard_requests,
)
from ..nn.kernels import zero_state
from ..nn.tensor import Tensor

__all__ = [
    "lstm_cell",
    "gru_cell",
    "lstm_scan",
    "gru_scan",
    "REFERENCE_OPS",
    "train_dist_reference",
]


def _blend(new: Tensor, old: Tensor, mask_t: np.ndarray | None) -> Tensor:
    """Keep the previous state where ``mask_t`` marks padding (False)."""
    if mask_t is None:
        return new
    keep = np.asarray(mask_t, dtype=np.float64)[:, None]
    return new * Tensor(keep) + old * Tensor(1.0 - keep)


def lstm_cell(
    gates: Tensor, h: Tensor, c: Tensor, mask_t: np.ndarray | None = None
) -> tuple[Tensor, Tensor]:
    """One LSTM step from (B, 4H) pre-activations packed ``[i, f, g, o]``."""
    hs = gates.shape[-1] // 4
    i = gates[:, :hs].sigmoid()
    f = gates[:, hs : 2 * hs].sigmoid()
    g = gates[:, 2 * hs : 3 * hs].tanh()
    o = gates[:, 3 * hs :].sigmoid()
    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    return _blend(h_next, h, mask_t), _blend(c_next, c, mask_t)


def gru_cell(
    gi: Tensor, gh: Tensor, h: Tensor, mask_t: np.ndarray | None = None
) -> Tensor:
    """One GRU step from (B, 3H) pre-activations packed ``[r, z, n]``."""
    hs = gi.shape[-1] // 3
    r = (gi[:, :hs] + gh[:, :hs]).sigmoid()
    z = (gi[:, hs : 2 * hs] + gh[:, hs : 2 * hs]).sigmoid()
    n = (gi[:, 2 * hs :] + r * gh[:, 2 * hs :]).tanh()
    return _blend((1.0 - z) * n + z * h, h, mask_t)


def lstm_scan(gi: Tensor, w_hh: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """(B, T, H) hidden states of an LSTM scan from zero initial state."""
    batch, time, width = gi.shape
    h = c = zero_state(batch, width // 4)
    outputs = []
    for t in range(time):
        gates = gi[:, t, :] + h @ w_hh.T
        h, c = lstm_cell(gates, h, c, None if mask is None else mask[:, t])
        outputs.append(h)
    return Tensor.stack(outputs, axis=1)


def gru_scan(gi: Tensor, w_hh: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """(B, T, H) hidden states of a GRU scan from zero initial state."""
    batch, time, width = gi.shape
    h = zero_state(batch, width // 3)
    outputs = []
    for t in range(time):
        h = gru_cell(gi[:, t, :], h @ w_hh.T, h, None if mask is None else mask[:, t])
        outputs.append(h)
    return Tensor.stack(outputs, axis=1)


#: Fused op name -> its composed reference (installed by ``use_fused(False)``).
REFERENCE_OPS = {
    "lstm_cell_fused": lstm_cell,
    "gru_cell_fused": gru_cell,
    "lstm_scan_fused": lstm_scan,
    "gru_scan_fused": gru_scan,
}


def train_dist_reference(
    model, requests, catalog, population, histories, config, world_size: int
) -> list[float]:
    """Train ``model`` in place as a ``world_size`` fleet would.

    Returns the per-epoch loss curve.
    """
    shards = shard_requests(requests, world_size)
    optimizer = nn.Adam(
        model.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    model.train()
    steps = _steps_per_epoch(shards, config.batch_size)
    losses = []
    for epoch in range(config.epochs):
        batches = [
            _rank_batches(shard, catalog, population, histories, config, epoch, rank)
            for rank, shard in enumerate(shards)
        ]
        step_losses = []
        for step in range(steps):
            contribs = []
            for rank in range(world_size):
                loss, count = backward_batch(
                    model,
                    optimizer,
                    batches[rank][step],
                    _step_rng(config.seed, epoch, step, rank),
                )
                contribs.append(
                    (rank, _collect_grads(model), float(loss.item()), count)
                )
            averaged, step_loss = average_contributions(contribs)
            apply_step(model, optimizer, config.grad_clip, grads=averaged)
            step_losses.append(step_loss)
        losses.append(float(np.mean(step_losses)))
    return losses
