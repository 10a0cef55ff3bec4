"""Tests for the tape-free inference path (``repro.nn.inference``).

Covers the ``use_infer`` test selector, the weight-cast cache contract,
layer ``infer`` parity against the tape path (bitwise in float64 mode,
bounded drift in float32), the differential oracle's inference twins,
``no_grad`` reentrancy/thread-safety, and the
``ResilientReranker.warmup`` hook.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.nn as nn
import repro.nn.functional as F
from repro.nn import inference
from repro.nn.tensor import Tensor, is_grad_enabled, no_grad
from repro.testing.oracle import (
    check_all_infer_kernels,
    check_infer_kernel,
    max_ulp_diff_in_dtype,
)


# ----------------------------------------------------------------------
# Dispatch selector
# ----------------------------------------------------------------------


def test_use_infer_nests_and_restores():
    assert inference.infer_enabled()  # serving default
    with inference.use_infer(False):
        assert not inference.infer_enabled()
        with inference.use_infer(True):
            assert inference.infer_enabled()
        assert not inference.infer_enabled()
        with pytest.raises(RuntimeError):
            with inference.use_infer(True):
                raise RuntimeError("boom")
        assert not inference.infer_enabled()
    assert inference.infer_enabled()


def test_infer_dtype_env(monkeypatch):
    monkeypatch.delenv("REPRO_NN_INFER_DTYPE", raising=False)
    assert inference.infer_dtype() == np.dtype(np.float32)
    monkeypatch.setenv("REPRO_NN_INFER_DTYPE", "float64")
    assert inference.infer_dtype() == np.dtype(np.float64)


# ----------------------------------------------------------------------
# no_grad: reentrancy + thread isolation
# ----------------------------------------------------------------------


def test_no_grad_nesting_restores_each_level():
    assert is_grad_enabled()
    with no_grad():
        assert not is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        # Exiting the inner block must NOT re-enable gradients.
        assert not is_grad_enabled()
    assert is_grad_enabled()


def test_no_grad_single_instance_is_reentrant():
    guard = no_grad()
    with guard:
        with guard:  # same instance entered recursively
            assert not is_grad_enabled()
        assert not is_grad_enabled()
    assert is_grad_enabled()


def test_no_grad_restores_on_exception():
    with pytest.raises(RuntimeError):
        with no_grad():
            raise RuntimeError("boom")
    assert is_grad_enabled()


def test_no_grad_is_thread_local():
    seen = {}

    def worker():
        seen["enabled_in_thread"] = is_grad_enabled()
        with no_grad():
            seen["disabled_in_thread"] = not is_grad_enabled()

    with no_grad():
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        # The main thread's no_grad must not leak into the worker...
        assert seen["enabled_in_thread"]
        assert seen["disabled_in_thread"]
        # ...and the worker's exit must not re-enable the main thread.
        assert not is_grad_enabled()
    assert is_grad_enabled()


def test_no_grad_skips_tape_construction():
    x = Tensor(np.ones((2, 3)))
    with no_grad():
        y = (x * 2.0).sum()
    assert y._backward is None
    assert y._parents == ()


# ----------------------------------------------------------------------
# Weight-cast cache
# ----------------------------------------------------------------------


def test_cached_weights_hits_until_rebind():
    layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
    calls = []

    def build(dtype):
        calls.append(dtype)
        return layer.weight.data.astype(dtype)

    first = inference.cached_weights(layer, "w", [layer.weight], build)
    second = inference.cached_weights(layer, "w", [layer.weight], build)
    assert first is second and len(calls) == 1
    # Rebinding param.data (what optimizers/load_state_dict do) misses.
    layer.weight.data = layer.weight.data.copy()
    third = inference.cached_weights(layer, "w", [layer.weight], build)
    assert third is not first and len(calls) == 2


def test_cached_weights_keyed_on_dtype(monkeypatch):
    layer = nn.Linear(4, 3, rng=np.random.default_rng(0))
    build = lambda dtype: layer.weight.data.astype(dtype)  # noqa: E731
    monkeypatch.setenv("REPRO_NN_INFER_DTYPE", "float32")
    f32 = inference.cached_weights(layer, "w", [layer.weight], build)
    monkeypatch.setenv("REPRO_NN_INFER_DTYPE", "float64")
    f64 = inference.cached_weights(layer, "w", [layer.weight], build)
    assert f32.dtype == np.float32 and f64.dtype == np.float64


def test_invalidate_caches_recurses():
    mlp = nn.MLP([4, 5, 3], rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((2, 4)).astype(np.float32)
    mlp.infer(x)  # populate the per-Linear caches

    def cache_keys(module):
        keys = [k for k in module.__dict__ if k.startswith("_infer_cache_")]
        for child in module.children():
            keys.extend(cache_keys(child))
        return keys

    assert cache_keys(mlp), "expected MLP.infer to populate weight-cast caches"
    inference.invalidate_caches(mlp)
    assert not cache_keys(mlp)


def test_cache_tracks_optimizer_step():
    """After an SGD step the cast weights must reflect the new values."""
    layer = nn.Linear(3, 2, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).standard_normal((4, 3)).astype(np.float32)
    before = layer.infer(x).copy()
    loss = layer.forward(Tensor(x.astype(np.float64))).sum()
    loss.backward()
    nn.SGD(layer.parameters(), lr=0.5).step()
    after = layer.infer(x)
    assert not np.allclose(before, after)
    expected = x @ layer.weight.data.T.astype(np.float32) + layer.bias.data.astype(
        np.float32
    )
    np.testing.assert_allclose(after, expected, rtol=1e-6, atol=1e-6)


# ----------------------------------------------------------------------
# Layer parity: float64 infer dtype == tape path bitwise (or ~1 ULP for
# reassociated reductions); float32 drift bounded.
# ----------------------------------------------------------------------

_RNG = np.random.default_rng(7)


def _layer_cases():
    rng = np.random.default_rng(3)
    batch, time, feat = 2, 5, 4
    x = _RNG.standard_normal((batch, time, feat))
    mask = np.ones((batch, time), dtype=bool)
    mask[1, 3:] = False
    cases = [
        ("linear", nn.Linear(feat, 3, rng=rng), (x,), {}),
        ("mlp", nn.MLP([feat, 6, 2], rng=rng), (x,), {}),
        ("layer_norm", nn.LayerNorm(feat), (x,), {}),
        ("lstm", nn.LSTM(feat, 3, rng=rng), (x,), {"mask": mask}),
        ("gru", nn.GRU(feat, 3, rng=rng), (x,), {"mask": mask}),
        ("bilstm", nn.BiLSTM(feat, 3, rng=rng), (x,), {"mask": mask}),
        ("self_attention", nn.SelfAttention(), (x,), {"mask": mask}),
        (
            "mhsa",
            nn.MultiHeadSelfAttention(feat, 2, rng=rng),
            (x,),
            {"mask": mask},
        ),
        (
            "transformer",
            nn.TransformerEncoderLayer(feat, 2, rng=rng),
            (x,),
            {"mask": mask},
        ),
    ]
    return cases


def _tape_forward(module, args, kwargs):
    with no_grad():
        out = module.forward(*[Tensor(a) for a in args], **kwargs)
    if isinstance(out, tuple):
        return tuple(np.asarray(o.data) for o in out)
    return np.asarray(out.data)


@pytest.mark.parametrize(
    "name,module,args,kwargs",
    _layer_cases(),
    ids=[c[0] for c in _layer_cases()],
)
def test_layer_infer_parity_float64(name, module, args, kwargs, monkeypatch):
    """In float64 the fast path is the same arithmetic — (near-)bitwise."""
    monkeypatch.setenv("REPRO_NN_INFER_DTYPE", "float64")
    reference = _tape_forward(module, args, kwargs)
    fast = module.infer(*args, **kwargs)
    if not isinstance(reference, tuple):
        reference, fast = (reference,), (fast,)
    for ref, out in zip(reference, fast):
        assert np.asarray(out).dtype == np.float64
        # Reductions may reassociate (matmul blocking, layer-norm mean),
        # residual chains compound it, and the scans' in-place sigmoid is a
        # couple of ULPs from the tape's stable form: allow a few
        # final-place units.  Same near-zero escape as the oracle — where
        # the values themselves are ~0, ULP spacing collapses and the
        # absolute bound is the meaningful one.
        zero_atol = 16 * float(np.finfo(np.float64).eps)
        ulp = max_ulp_diff_in_dtype(ref, out, np.float64, zero_atol=zero_atol)
        assert ulp <= 8.0, name
        np.testing.assert_allclose(out, ref, rtol=1e-12, atol=zero_atol)


@pytest.mark.parametrize(
    "name,module,args,kwargs",
    _layer_cases(),
    ids=[c[0] for c in _layer_cases()],
)
def test_layer_infer_drift_float32(name, module, args, kwargs, monkeypatch):
    """In float32 the drift against the float64 tape stays within ~100 eps."""
    monkeypatch.setenv("REPRO_NN_INFER_DTYPE", "float32")
    inference.invalidate_caches(module)
    reference = _tape_forward(module, args, kwargs)
    # The serving layer casts inputs once at assembly; mirror that here.
    fast = module.infer(*[a.astype(np.float32) for a in args], **kwargs)
    if not isinstance(reference, tuple):
        reference, fast = (reference,), (fast,)
    for ref, out in zip(reference, fast):
        assert np.asarray(out).dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)


def test_module_infer_fallback_is_tape_identical():
    """Modules without a fast path serve via forward-under-no_grad: exact."""

    class Custom(nn.Module):
        def __init__(self):
            super().__init__()
            self.proj = nn.Linear(4, 4, rng=np.random.default_rng(0))

        def forward(self, x):
            return F.softmax(self.proj(x).tanh(), axis=-1)

    module = Custom()
    x = _RNG.standard_normal((3, 4))
    reference = _tape_forward(module, (x,), {})
    fast = module.infer(x)
    assert fast.dtype == np.float64
    assert (fast == reference).all()


def test_functional_ndarray_passthrough():
    """repro.nn.functional dispatches raw ndarrays to the inference kernels."""
    x = _RNG.standard_normal((3, 5)).astype(np.float32)
    mask = np.ones((3, 5), dtype=bool)
    mask[2, 2:] = False
    for fn, ref in [
        (F.sigmoid, inference.sigmoid_nd),
        (F.relu, inference.relu_nd),
        (F.tanh, np.tanh),
    ]:
        out = fn(x)
        assert isinstance(out, np.ndarray) and out.dtype == np.float32
        assert (out == ref(x)).all()
    assert (F.softmax(x, axis=-1) == inference.softmax_nd(x, axis=-1)).all()
    assert (
        F.log_softmax(x, axis=-1) == inference.log_softmax_nd(x, axis=-1)
    ).all()
    assert (
        F.masked_softmax(x, mask) == inference.masked_softmax_nd(x, mask)
    ).all()
    # Tensor inputs still take the tape path and return Tensors.
    assert isinstance(F.sigmoid(Tensor(np.ones((2, 2)))), Tensor)


# ----------------------------------------------------------------------
# Differential oracle: inference twins
# ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_oracle_infer_twins_pass(seed):
    reports = check_all_infer_kernels(seed=seed)
    for name, report in reports.items():
        assert report.passed, f"{name} (seed {seed}):\n{report.format()}"


def test_oracle_infer_twins_cover_all_fused_kernels():
    from repro.nn.kernels import ORACLE_CASES

    assert set(ORACLE_CASES) <= set(inference.INFER_CASES)


def test_oracle_coverage_assertion_fires():
    from repro.nn.kernels import ORACLE_CASES

    ORACLE_CASES["fake_fused_kernel"] = object()
    try:
        with pytest.raises(KeyError, match="fake_fused_kernel"):
            check_all_infer_kernels()
    finally:
        del ORACLE_CASES["fake_fused_kernel"]


def test_check_infer_kernel_unknown_name():
    with pytest.raises(KeyError, match="no inference-twin"):
        check_infer_kernel("not_a_kernel")


def test_oracle_catches_structural_bug():
    """A wrong gate order must blow the ULP budget, not hide in tolerance."""
    build = inference.INFER_CASES["lstm_scan_fused"]
    reference_fn, infer_fn, arrays, _ = build(np.random.default_rng(0))
    dtype = inference.infer_dtype()
    reference = reference_fn(*[np.array(a, dtype=np.float64) for a in arrays])
    cast = [np.asarray(a).astype(dtype) for a in arrays]
    gates = cast[0]
    hidden = gates.shape[-1] // 4
    # Swap the input and forget gate blocks — a classic porting bug.
    swapped = np.concatenate(
        [gates[..., hidden : 2 * hidden], gates[..., :hidden], gates[..., 2 * hidden :]],
        axis=-1,
    )
    bad = infer_fn(swapped, *cast[1:])
    zero_atol = float(16 * np.finfo(dtype).eps)
    ulp = max_ulp_diff_in_dtype(reference, bad, dtype, zero_atol=zero_atol)
    assert ulp > 1e6


def test_max_ulp_diff_in_dtype_basics():
    a = np.array([1.0, -2.0, 0.5], dtype=np.float32)
    assert max_ulp_diff_in_dtype(a, a.copy()) == 0.0
    neighbor = np.nextafter(a, np.float32(np.inf))
    assert max_ulp_diff_in_dtype(a, neighbor) == 1.0
    # Crossing zero is many ULPs apart but tiny in magnitude: the
    # near-zero escape treats it as equal.
    tiny = np.array([1e-8], dtype=np.float32)
    assert max_ulp_diff_in_dtype(tiny, -tiny) > 1e6
    assert max_ulp_diff_in_dtype(tiny, -tiny, zero_atol=1e-6) == 0.0
    assert max_ulp_diff_in_dtype(a, a[:2]) == float("inf")
    with_nan = a.copy()
    with_nan[0] = np.nan
    assert max_ulp_diff_in_dtype(a, with_nan) == float("inf")
    assert max_ulp_diff_in_dtype(with_nan, with_nan.copy()) == 0.0


# ----------------------------------------------------------------------
# Serving integration: warmup
# ----------------------------------------------------------------------


def test_resilient_warmup_touches_every_stage():
    from repro.rerank.base import Reranker
    from repro.resilience.degrade import ResilientReranker

    calls = []

    class Stage(Reranker):
        def __init__(self, name, fail=False):
            self.name = name
            self._fail = fail

        def rerank(self, batch):
            calls.append(self.name)
            if self._fail:
                raise RuntimeError("not warmed up")
            return np.tile(np.arange(batch.list_length), (batch.batch_size, 1))

    class FakeBatch:
        batch_size = 2
        list_length = 3

    serving = ResilientReranker(
        Stage("primary", fail=True),
        fallbacks=[Stage("mmr")],
        deadline_ms=None,
    )
    serving.warmup(FakeBatch())
    # Every stage is touched; a failing stage must not abort the others.
    assert calls == ["primary", "mmr"]
