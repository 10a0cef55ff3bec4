"""Tests for the inference mode (``Module.infer`` / ``repro.nn.inference``).

Covers the ``use_infer`` test selector, the eval semantics of inference
blocks, served weights tracking parameter updates, layer ``infer`` parity
against the tape path (bitwise under ``use_infer(False)``, bounded drift
in float32), the differential oracle's scan-kernel cases, ``no_grad``
reentrancy/thread-safety, and the ``ResilientReranker.warmup`` hook.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

import repro.nn as nn
import repro.nn.functional as F
from repro.nn import inference
from repro.nn.tensor import Tensor, is_grad_enabled, is_inferring, no_grad
from repro.testing.oracle import (
    check_all_infer_kernels,
    check_infer_kernel,
    max_ulp_diff_in_dtype,
)


# ----------------------------------------------------------------------
# Dispatch selector
# ----------------------------------------------------------------------


def _served_dtype():
    return nn.Linear(2, 2).infer(np.ones((1, 2))).dtype


def test_use_infer_nests_and_restores():
    assert _served_dtype() == np.float32  # serving default
    with inference.use_infer(False):
        assert _served_dtype() == np.float64
        with inference.use_infer(True):
            assert _served_dtype() == np.float32
        assert _served_dtype() == np.float64
        with pytest.raises(RuntimeError):
            with inference.use_infer(True):
                raise RuntimeError("boom")
        assert _served_dtype() == np.float64
    assert _served_dtype() == np.float32


def test_infer_block_is_tape_free_eval_and_leaves_modes_alone():
    """Inside Module.infer: no tape, eval semantics; outside: untouched."""
    seen = {}

    class Probe(nn.Module):
        def __init__(self):
            super().__init__()
            self.proj = nn.Linear(3, 3, rng=np.random.default_rng(0))
            self.drop = nn.Dropout(0.5)

        def forward(self, x):
            seen["inferring"] = is_inferring()
            seen["grad"] = is_grad_enabled()
            seen["training"] = (self.training, self.drop.training)
            return self.drop(self.proj(x))

    module = Probe()
    assert module.training
    x = _RNG.standard_normal((4, 3))
    out = module.infer(x)
    assert seen == {"inferring": True, "grad": False, "training": (False, False)}
    # Dropout acted as the identity: the output is the projection alone.
    with inference.use_infer(False):
        proj = module.proj.infer(x)
    np.testing.assert_allclose(out, proj, rtol=1e-6, atol=1e-6)
    assert module.training and module.drop.training
    assert not is_inferring() and is_grad_enabled()


def test_infer_mode_is_thread_local():
    inside = threading.Event()
    release = threading.Event()
    seen = {}

    class Blocking(nn.Module):
        def forward(self, x):
            inside.set()
            release.wait(5.0)
            return x

    worker = threading.Thread(target=lambda: Blocking().infer(np.ones(2)))
    worker.start()
    assert inside.wait(5.0)
    seen["main_inferring"] = is_inferring()
    seen["main_tensor_dtype"] = Tensor(np.ones(2)).data.dtype
    release.set()
    worker.join()
    assert seen == {"main_inferring": False, "main_tensor_dtype": np.float64}


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
# Served weights track parameter updates (parameters are cast per call)
# ----------------------------------------------------------------------


def test_cache_tracks_optimizer_step():
    """After an SGD step the served forward must use the new values."""
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
# Layer parity: use_infer(False) == tape path bitwise; float32 drift
# bounded.
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
        ("bilstm_unmasked", nn.BiLSTM(feat, 3, rng=rng), (x,), {}),
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
def test_layer_infer_parity_float64(name, module, args, kwargs):
    """Under use_infer(False) the served forward is the tape forward: bitwise."""
    reference = _tape_forward(module, args, kwargs)
    with inference.use_infer(False):
        fast = module.infer(*args, **kwargs)
    if not isinstance(reference, tuple):
        reference, fast = (reference,), (fast,)
    for ref, out in zip(reference, fast):
        assert np.asarray(out).dtype == np.float64
        np.testing.assert_array_equal(out, ref)


@pytest.mark.parametrize(
    "name,module,args,kwargs",
    _layer_cases(),
    ids=[c[0] for c in _layer_cases()],
)
def test_layer_infer_drift_float32(name, module, args, kwargs):
    """In float32 the drift against the float64 tape stays within ~100 eps."""
    reference = _tape_forward(module, args, kwargs)
    fast = module.infer(*args, **kwargs)
    if not isinstance(reference, tuple):
        reference, fast = (reference,), (fast,)
    for ref, out in zip(reference, fast):
        assert np.asarray(out).dtype == np.float32
        np.testing.assert_allclose(out, ref, rtol=1e-4, atol=1e-5)


def test_module_infer_fallback_is_tape_identical():
    """A module with no serving code of its own serves its forward:
    bitwise the tape under use_infer(False), float32 drift by default."""

    class Custom(nn.Module):
        def __init__(self):
            super().__init__()
            self.proj = nn.Linear(4, 4, rng=np.random.default_rng(0))

        def forward(self, x):
            return F.softmax(self.proj(x).tanh(), axis=-1)

    module = Custom()
    x = _RNG.standard_normal((3, 4))
    reference = _tape_forward(module, (x,), {})
    with inference.use_infer(False):
        exact = module.infer(x)
    assert exact.dtype == np.float64
    assert (exact == reference).all()
    served = module.infer(x)
    assert served.dtype == np.float32
    np.testing.assert_allclose(served, reference, rtol=1e-5, atol=1e-6)


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
    dtype = np.dtype(np.float32)
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


def test_bilstm_oracle_case_is_padded():
    """The packed kernel's case pads, so a dropped mask blows the budget."""
    build = inference.INFER_CASES["bilstm_scan"]
    reference_fn, _, arrays, _ = build(np.random.default_rng(0))
    dtype = np.dtype(np.float32)
    reference = reference_fn(*[np.array(a, dtype=np.float64) for a in arrays])
    unmasked = inference.bilstm_scan_infer(*[a.astype(dtype) for a in arrays])
    zero_atol = float(16 * np.finfo(dtype).eps)
    ulp = max_ulp_diff_in_dtype(reference, unmasked, dtype, zero_atol=zero_atol)
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
