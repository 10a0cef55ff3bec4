"""Attention layers.

Covers every attention variant used in the paper and baselines:

- :class:`SelfAttention` — the parameter-free scaled dot-product
  ``softmax(V V^T / sqrt(d)) V`` of RAPID's inter-topic module (Eq. 2).
- :class:`MultiHeadSelfAttention` — the transformer block used by PRM,
  DESA and the RAPID-trans ablation.
- :class:`InducedSetAttention` — SetRank's induced multi-head attention.
- :class:`GatedLocalAttention` — SRGA's unidirectional/local gated attention.
"""

from __future__ import annotations

import numpy as np

from .. import functional as F
from ..module import Module, Parameter
from ..tensor import Tensor
from .linear import Linear
from .normalization import LayerNorm

__all__ = [
    "SelfAttention",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
    "InducedSetAttention",
    "GatedLocalAttention",
]


class SelfAttention(Module):
    """Parameter-free scaled dot-product self-attention (paper Eq. 2).

    ``A = softmax(V V^T / sqrt(q_h)) V``, applied over the penultimate axis.
    RAPID uses this over the stacked topic representation matrix to model
    inter-topic interactions.
    """

    def forward(self, v: Tensor, mask: np.ndarray | None = None) -> Tensor:
        d = v.shape[-1]
        scores = (v @ v.swapaxes(-1, -2)) * (1.0 / np.sqrt(d))
        if mask is not None:
            key_mask = np.asarray(mask, dtype=bool)
            attn = F.masked_softmax(scores, key_mask[..., None, :], axis=-1)
        else:
            attn = scores.softmax(axis=-1)
        return attn @ v


class MultiHeadSelfAttention(Module):
    """Standard multi-head self-attention with learned Q/K/V/O projections."""

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        if model_dim % num_heads != 0:
            raise ValueError(
                f"model_dim {model_dim} must be divisible by num_heads {num_heads}"
            )
        rng = rng if rng is not None else np.random.default_rng(0)
        self.model_dim = model_dim
        self.num_heads = num_heads
        self.head_dim = model_dim // num_heads
        self.q_proj = Linear(model_dim, model_dim, rng=rng)
        self.k_proj = Linear(model_dim, model_dim, rng=rng)
        self.v_proj = Linear(model_dim, model_dim, rng=rng)
        self.out_proj = Linear(model_dim, model_dim, rng=rng)

    def _split_heads(self, x: Tensor) -> Tensor:
        batch, time, _ = x.shape
        return x.reshape(batch, time, self.num_heads, self.head_dim).transpose(
            0, 2, 1, 3
        )

    def forward(
        self,
        x: Tensor,
        mask: np.ndarray | None = None,
        keys: Tensor | None = None,
    ) -> Tensor:
        """Attend ``x`` (queries) over ``keys`` (defaults to ``x``).

        ``mask`` is (batch, key_time) with True marking valid key positions.
        """
        kv = keys if keys is not None else x
        q = self._split_heads(self.q_proj(x))
        k = self._split_heads(self.k_proj(kv))
        v = self._split_heads(self.v_proj(kv))
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(self.head_dim))
        if mask is not None:
            key_mask = np.asarray(mask, dtype=bool)[:, None, None, :]
            attn = F.masked_softmax(scores, key_mask, axis=-1)
        else:
            attn = scores.softmax(axis=-1)
        context = attn @ v  # (batch, heads, q_time, head_dim)
        batch, _, q_time, _ = context.shape
        merged = context.transpose(0, 2, 1, 3).reshape(batch, q_time, self.model_dim)
        return self.out_proj(merged)


class TransformerEncoderLayer(Module):
    """Post-norm transformer encoder block: MHSA + position-wise FFN."""

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        ffn_dim: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        ffn_dim = ffn_dim if ffn_dim is not None else 4 * model_dim
        self.attention = MultiHeadSelfAttention(model_dim, num_heads, rng=rng)
        self.norm1 = LayerNorm(model_dim)
        self.norm2 = LayerNorm(model_dim)
        self.ffn_in = Linear(model_dim, ffn_dim, rng=rng)
        self.ffn_out = Linear(ffn_dim, model_dim, rng=rng)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        x = self.norm1(x + self.attention(x, mask=mask))
        x = self.norm2(x + self.ffn_out(self.ffn_in(x).relu()))
        return x


class InducedSetAttention(Module):
    """SetRank-style induced multi-head self-attention block (IMSAB).

    A small set of learned inducing points attends over the input set, and
    the input then attends over the induced summary — giving a
    permutation-equivariant encoder with cost linear in list length.
    """

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        num_inducing: int = 4,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        self.inducing = Parameter(
            rng.normal(0.0, 0.1, size=(num_inducing, model_dim))
        )
        self.attend_to_set = MultiHeadSelfAttention(model_dim, num_heads, rng=rng)
        self.attend_to_induced = MultiHeadSelfAttention(model_dim, num_heads, rng=rng)
        self.norm = LayerNorm(model_dim)

    def forward(self, x: Tensor, mask: np.ndarray | None = None) -> Tensor:
        batch = x.shape[0]
        num_inducing, model_dim = self.inducing.shape
        seed = self.inducing.reshape(1, num_inducing, model_dim) + Tensor(
            np.zeros((batch, num_inducing, model_dim))
        )
        induced = self.attend_to_set(seed, mask=mask, keys=x)
        out = self.attend_to_induced(x, keys=induced)
        return self.norm(x + out)


class GatedLocalAttention(Module):
    """SRGA-style attention with a unidirectional (causal) branch, a local
    windowed branch, and a learned gate fusing them.

    The causal branch models the top-down browsing behavior; the local branch
    models interactions between neighboring items (window of +-``window``).
    """

    def __init__(
        self,
        model_dim: int,
        num_heads: int,
        window: int = 2,
        rng: np.random.Generator | None = None,
    ) -> None:
        super().__init__()
        rng = rng if rng is not None else np.random.default_rng(0)
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.causal_attn = MultiHeadSelfAttention(model_dim, num_heads, rng=rng)
        self.local_attn = MultiHeadSelfAttention(model_dim, num_heads, rng=rng)
        self.gate = Linear(2 * model_dim, model_dim, rng=rng)
        self.norm = LayerNorm(model_dim)

    def _structural_softmax(
        self, attn_module: MultiHeadSelfAttention, x: Tensor, allowed: np.ndarray
    ) -> Tensor:
        q = attn_module._split_heads(attn_module.q_proj(x))
        k = attn_module._split_heads(attn_module.k_proj(x))
        v = attn_module._split_heads(attn_module.v_proj(x))
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(attn_module.head_dim))
        attn = F.masked_softmax(scores, allowed[None, None, :, :], axis=-1)
        context = attn @ v
        batch, _, time, _ = context.shape
        merged = context.transpose(0, 2, 1, 3).reshape(
            batch, time, attn_module.model_dim
        )
        return attn_module.out_proj(merged)

    def forward(self, x: Tensor) -> Tensor:
        time = x.shape[1]
        causal = np.tril(np.ones((time, time), dtype=bool))
        offsets = np.abs(np.arange(time)[:, None] - np.arange(time)[None, :])
        local = offsets <= self.window
        causal_out = self._structural_softmax(self.causal_attn, x, causal)
        local_out = self._structural_softmax(self.local_attn, x, local)
        gate = self.gate(Tensor.concatenate([causal_out, local_out], axis=2)).sigmoid()
        fused = gate * causal_out + (1.0 - gate) * local_out
        return self.norm(x + fused)
