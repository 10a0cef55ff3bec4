"""Fused recurrent kernel tests: gradchecks, masking, reference swap, profiler.

The fused kernels must be *numerically interchangeable* with the composed-op
graph: identical forward values (same primitive formulas in the same order)
and gradients matching to tight tolerance (closed-form backward vs chained
primitive backwards differ only in floating-point summation order).
``use_fused(False)`` swaps the composed references of
``repro.testing.reference`` in under the op names; production has no switch.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor, kernels
from repro.nn.kernels import (
    gru_cell_fused,
    gru_scan_fused,
    lstm_cell_fused,
    lstm_scan_fused,
    use_fused,
    zero_state,
)
from repro.testing import differential_check, reference


def _random_case(rng, batch, hidden, factor, scale=1.0):
    gates = rng.normal(size=(batch, factor * hidden)) * scale
    h = rng.normal(size=(batch, hidden))
    c = rng.normal(size=(batch, hidden))
    return gates, h, c


def _composed_lstm(gates: Tensor, h: Tensor, c: Tensor, mask_t=None):
    hs = gates.shape[-1] // 4
    i = gates[:, :hs].sigmoid()
    f = gates[:, hs : 2 * hs].sigmoid()
    g = gates[:, 2 * hs : 3 * hs].tanh()
    o = gates[:, 3 * hs :].sigmoid()
    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    if mask_t is not None:
        keep = Tensor(mask_t.astype(np.float64)[:, None])
        h_next = h_next * keep + h * (Tensor(1.0) - keep)
        c_next = c_next * keep + c * (Tensor(1.0) - keep)
    return h_next, c_next


def _composed_gru(gi: Tensor, gh: Tensor, h: Tensor, mask_t=None):
    hs = gi.shape[-1] // 3
    r = (gi[:, :hs] + gh[:, :hs]).sigmoid()
    z = (gi[:, hs : 2 * hs] + gh[:, hs : 2 * hs]).sigmoid()
    n = (gi[:, 2 * hs :] + r * gh[:, 2 * hs :]).tanh()
    h_next = (1.0 - z) * n + z * h
    if mask_t is not None:
        keep = Tensor(mask_t.astype(np.float64)[:, None])
        h_next = h_next * keep + h * (Tensor(1.0) - keep)
    return h_next


def _loss(h: Tensor, c: Tensor | None = None) -> Tensor:
    # Mixes both outputs nonlinearly so every gradient path is exercised.
    total = (h * h).sum() + h.sum()
    if c is not None:
        total = total + (c * c * 0.5).sum() + c.tanh().sum()
    return total


class TestLSTMCellFusedGradcheck:
    @pytest.mark.parametrize(
        "batch,hidden,scale",
        [(1, 1, 1.0), (3, 4, 1.0), (5, 7, 1.0), (2, 3, 50.0), (2, 3, 1e-6)],
    )
    def test_matches_composed_graph(self, batch, hidden, scale):
        rng = np.random.default_rng(batch * 100 + hidden)
        gates_d, h_d, c_d = _random_case(rng, batch, hidden, 4, scale)

        gates_f = Tensor(gates_d, requires_grad=True)
        h_f = Tensor(h_d, requires_grad=True)
        c_f = Tensor(c_d, requires_grad=True)
        hf, cf = lstm_cell_fused(gates_f, h_f, c_f)
        _loss(hf, cf).backward()

        gates_c = Tensor(gates_d, requires_grad=True)
        h_c = Tensor(h_d, requires_grad=True)
        c_c = Tensor(c_d, requires_grad=True)
        hc, cc = _composed_lstm(gates_c, h_c, c_c)
        _loss(hc, cc).backward()

        assert np.array_equal(hf.numpy(), hc.numpy())
        assert np.array_equal(cf.numpy(), cc.numpy())
        assert np.allclose(gates_f.grad, gates_c.grad, atol=1e-8)
        assert np.allclose(c_f.grad, c_c.grad, atol=1e-8)
        # Without a mask, h_prev only feeds the step through the (external)
        # recurrent matmul, so no gradient reaches it from the cell itself.
        assert h_f.grad is None and h_c.grad is None

    @pytest.mark.parametrize("masked_rows", [0, 1, 2])
    def test_masked_steps_match_composed(self, masked_rows):
        rng = np.random.default_rng(7 + masked_rows)
        gates_d, h_d, c_d = _random_case(rng, 4, 3, 4)
        mask = np.ones(4, dtype=bool)
        mask[:masked_rows] = False

        gates_f = Tensor(gates_d, requires_grad=True)
        h_f = Tensor(h_d, requires_grad=True)
        c_f = Tensor(c_d, requires_grad=True)
        hf, cf = lstm_cell_fused(gates_f, h_f, c_f, mask)
        _loss(hf, cf).backward()

        gates_c = Tensor(gates_d, requires_grad=True)
        h_c = Tensor(h_d, requires_grad=True)
        c_c = Tensor(c_d, requires_grad=True)
        hc, cc = _composed_lstm(gates_c, h_c, c_c, mask)
        _loss(hc, cc).backward()

        assert np.array_equal(hf.numpy(), hc.numpy())
        assert np.array_equal(cf.numpy(), cc.numpy())
        assert np.allclose(gates_f.grad, gates_c.grad, atol=1e-8)
        assert np.allclose(h_f.grad, h_c.grad, atol=1e-8)
        assert np.allclose(c_f.grad, c_c.grad, atol=1e-8)
        # Padded rows pass their gradient through to the previous state.
        if masked_rows:
            assert np.array_equal(
                np.asarray(gates_f.grad)[:masked_rows], 0.0 * gates_d[:masked_rows]
            )

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(11)
        gates_d, h_d, c_d = _random_case(rng, 2, 3, 4)
        eps = 1e-6

        def loss_at(gates_values, c_values):
            with nn.no_grad():
                h, c = lstm_cell_fused(
                    Tensor(gates_values), Tensor(h_d), Tensor(c_values)
                )
                return _loss(h, c).item()

        gates = Tensor(gates_d, requires_grad=True)
        c_prev = Tensor(c_d, requires_grad=True)
        h, c = lstm_cell_fused(gates, Tensor(h_d), c_prev)
        _loss(h, c).backward()

        for target, grad in ((gates_d, gates.grad), (c_d, c_prev.grad)):
            numeric = np.zeros_like(target)
            flat, numeric_flat = target.ravel(), numeric.ravel()
            for index in range(flat.size):
                original = flat[index]
                flat[index] = original + eps
                plus = loss_at(gates_d, c_d)
                flat[index] = original - eps
                minus = loss_at(gates_d, c_d)
                flat[index] = original
                numeric_flat[index] = (plus - minus) / (2 * eps)
            assert np.allclose(grad, numeric, atol=1e-6)


class TestGRUCellFusedGradcheck:
    @pytest.mark.parametrize(
        "batch,hidden,scale",
        [(1, 1, 1.0), (3, 4, 1.0), (5, 7, 1.0), (2, 3, 50.0), (2, 3, 1e-6)],
    )
    def test_matches_composed_graph(self, batch, hidden, scale):
        rng = np.random.default_rng(batch * 10 + hidden)
        gi_d = rng.normal(size=(batch, 3 * hidden)) * scale
        gh_d = rng.normal(size=(batch, 3 * hidden)) * scale
        h_d = rng.normal(size=(batch, hidden))

        gi_f = Tensor(gi_d, requires_grad=True)
        gh_f = Tensor(gh_d, requires_grad=True)
        h_f = Tensor(h_d, requires_grad=True)
        hf = gru_cell_fused(gi_f, gh_f, h_f)
        _loss(hf).backward()

        gi_c = Tensor(gi_d, requires_grad=True)
        gh_c = Tensor(gh_d, requires_grad=True)
        h_c = Tensor(h_d, requires_grad=True)
        hc = _composed_gru(gi_c, gh_c, h_c)
        _loss(hc).backward()

        assert np.array_equal(hf.numpy(), hc.numpy())
        assert np.allclose(gi_f.grad, gi_c.grad, atol=1e-8)
        assert np.allclose(gh_f.grad, gh_c.grad, atol=1e-8)
        assert np.allclose(h_f.grad, h_c.grad, atol=1e-8)

    def test_masked_steps_match_composed(self):
        rng = np.random.default_rng(23)
        gi_d = rng.normal(size=(4, 9))
        gh_d = rng.normal(size=(4, 9))
        h_d = rng.normal(size=(4, 3))
        mask = np.array([False, True, False, True])

        gi_f = Tensor(gi_d, requires_grad=True)
        gh_f = Tensor(gh_d, requires_grad=True)
        h_f = Tensor(h_d, requires_grad=True)
        _loss(gru_cell_fused(gi_f, gh_f, h_f, mask)).backward()

        gi_c = Tensor(gi_d, requires_grad=True)
        gh_c = Tensor(gh_d, requires_grad=True)
        h_c = Tensor(h_d, requires_grad=True)
        _loss(_composed_gru(gi_c, gh_c, h_c, mask)).backward()

        assert np.allclose(gi_f.grad, gi_c.grad, atol=1e-8)
        assert np.allclose(gh_f.grad, gh_c.grad, atol=1e-8)
        assert np.allclose(h_f.grad, h_c.grad, atol=1e-8)

    def test_finite_difference_gradient(self):
        rng = np.random.default_rng(29)
        gi_d = rng.normal(size=(2, 9))
        gh_d = rng.normal(size=(2, 9))
        h_d = rng.normal(size=(2, 3))
        eps = 1e-6

        gi = Tensor(gi_d, requires_grad=True)
        gh = Tensor(gh_d, requires_grad=True)
        h = Tensor(h_d, requires_grad=True)
        _loss(gru_cell_fused(gi, gh, h)).backward()

        for target, grad in ((gi_d, gi.grad), (gh_d, gh.grad), (h_d, h.grad)):
            numeric = np.zeros_like(target)
            flat, numeric_flat = target.ravel(), numeric.ravel()
            for index in range(flat.size):
                original = flat[index]
                flat[index] = original + eps
                with nn.no_grad():
                    plus = _loss(
                        gru_cell_fused(Tensor(gi_d), Tensor(gh_d), Tensor(h_d))
                    ).item()
                flat[index] = original - eps
                with nn.no_grad():
                    minus = _loss(
                        gru_cell_fused(Tensor(gi_d), Tensor(gh_d), Tensor(h_d))
                    ).item()
                flat[index] = original
                numeric_flat[index] = (plus - minus) / (2 * eps)
            assert np.allclose(grad, numeric, atol=1e-6)


class TestScanGradcheck:
    """Finite-difference checks for the whole-sequence scan kernels.

    The layer-level fused-vs-composed agreement lives in
    :class:`TestSequenceEquivalence`; these pin the scan backwards against
    numeric gradients directly, without the composed graph as an oracle.
    """

    @pytest.mark.parametrize("masked", [False, True])
    def test_lstm_scan_finite_difference(self, masked):
        rng = np.random.default_rng(31)
        gi_d = rng.normal(size=(2, 3, 8))
        w_d = rng.normal(size=(8, 2)) * 0.5
        mask = None
        if masked:
            mask = np.array([[True, False, True], [True, True, False]])
        eps = 1e-6

        def loss_at():
            with nn.no_grad():
                out = lstm_scan_fused(Tensor(gi_d), Tensor(w_d), mask)
                return _loss(out).item()

        gi = Tensor(gi_d, requires_grad=True)
        w = Tensor(w_d, requires_grad=True)
        _loss(lstm_scan_fused(gi, w, mask)).backward()

        for target, grad in ((gi_d, gi.grad), (w_d, w.grad)):
            numeric = np.zeros_like(target)
            flat, numeric_flat = target.ravel(), numeric.ravel()
            for index in range(flat.size):
                original = flat[index]
                flat[index] = original + eps
                plus = loss_at()
                flat[index] = original - eps
                minus = loss_at()
                flat[index] = original
                numeric_flat[index] = (plus - minus) / (2 * eps)
            assert np.allclose(grad, numeric, atol=1e-6)

    @pytest.mark.parametrize("masked", [False, True])
    def test_gru_scan_finite_difference(self, masked):
        rng = np.random.default_rng(37)
        gi_d = rng.normal(size=(2, 3, 6))
        w_d = rng.normal(size=(6, 2)) * 0.5
        mask = None
        if masked:
            mask = np.array([[True, True, False], [True, False, True]])
        eps = 1e-6

        def loss_at():
            with nn.no_grad():
                out = gru_scan_fused(Tensor(gi_d), Tensor(w_d), mask)
                return _loss(out).item()

        gi = Tensor(gi_d, requires_grad=True)
        w = Tensor(w_d, requires_grad=True)
        _loss(gru_scan_fused(gi, w, mask)).backward()

        for target, grad in ((gi_d, gi.grad), (w_d, w.grad)):
            numeric = np.zeros_like(target)
            flat, numeric_flat = target.ravel(), numeric.ravel()
            for index in range(flat.size):
                original = flat[index]
                flat[index] = original + eps
                plus = loss_at()
                flat[index] = original - eps
                minus = loss_at()
                flat[index] = original
                numeric_flat[index] = (plus - minus) / (2 * eps)
            assert np.allclose(grad, numeric, atol=1e-6)


_LONE_ROW_MASKS = {
    # step 1 and step 4: row 0 alone; step 2: no live row
    2: [[1, 1, 0, 1, 1], [1, 0, 0, 1, 0]],
    # prefix masks as in the topic histories; steps 2 and 3: one live row
    5: [[1, 1, 1, 1], [1, 1, 0, 0], [1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 0]],
    # a batch of one: every live step is the whole batch
    1: [[1, 0, 1, 1]],
}


class TestLiveRowStepping:
    """The scans step only the rows that are live at each step.

    A step with one live row in a larger batch must round like the
    full-batch gemm of the composed reference, not like gemv; a batch of one
    must keep gemv, as the reference does.  Forward values are bitwise and
    gradients keep the oracle's default budget.
    """

    @pytest.mark.parametrize("batch", sorted(_LONE_ROW_MASKS))
    @pytest.mark.parametrize("op,factor", [("lstm_scan_fused", 4), ("gru_scan_fused", 3)])
    def test_lone_live_row_matches_composed(self, op, factor, batch):
        mask = np.asarray(_LONE_ROW_MASKS[batch], dtype=bool)
        hidden = 16
        for seed in range(4):
            rng = np.random.default_rng(seed)
            gi = rng.normal(size=(*mask.shape, factor * hidden))
            w_hh = rng.normal(size=(factor * hidden, hidden)) * 0.4

            def fn(gi_t, w_t):
                return getattr(Tensor, op)(gi_t, w_t, mask)

            report = differential_check(fn, (gi, w_hh), name=op, fd=False)
            assert report.passed, report.format()

    @pytest.mark.parametrize("scan,factor", [(lstm_scan_fused, 4), (gru_scan_fused, 3)])
    def test_all_true_mask_is_no_mask(self, scan, factor):
        rng = np.random.default_rng(41)
        gi_d = rng.normal(size=(4, 6, factor * 3))
        w_d = rng.normal(size=(factor * 3, 3)) * 0.5
        results = []
        for mask in (None, np.ones((4, 6), dtype=bool)):
            gi = Tensor(gi_d, requires_grad=True)
            w = Tensor(w_d, requires_grad=True)
            out = scan(gi, w, mask)
            _loss(out).backward()
            results.append((out.data, gi.grad, w.grad))
        for unmasked, all_true in zip(*results):
            assert unmasked.tobytes() == all_true.tobytes()


class TestSequenceEquivalence:
    """Whole-layer fused vs composed agreement, including parameters."""

    @pytest.mark.parametrize("layer_cls", [nn.LSTM, nn.GRU])
    def test_layer_outputs_and_grads_agree(self, layer_cls):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(4, 6, 5))
        mask = rng.random((4, 6)) < 0.7
        mask[:, 0] = True
        layer = layer_cls(5, 3, rng=np.random.default_rng(5))

        results = {}
        for flag in (True, False):
            with use_fused(flag):
                layer.zero_grad()
                outputs, final = layer(Tensor(x), mask=mask)
                (_loss(outputs) + _loss(final)).backward()
                results[flag] = (
                    outputs.numpy().copy(),
                    final.numpy().copy(),
                    {k: v.grad.copy() for k, v in layer.named_parameters()},
                )

        out_f, fin_f, grads_f = results[True]
        out_c, fin_c, grads_c = results[False]
        assert np.array_equal(out_f, out_c)
        assert np.array_equal(fin_f, fin_c)
        for name in grads_f:
            assert np.allclose(grads_f[name], grads_c[name], atol=1e-8), name

    def test_bilstm_agrees(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(3, 5, 4))
        bi = nn.BiLSTM(4, 2, rng=np.random.default_rng(17))
        with use_fused(True):
            fused = bi(Tensor(x)).numpy().copy()
        with use_fused(False):
            composed = bi(Tensor(x)).numpy().copy()
        assert np.array_equal(fused, composed)

    def test_single_cell_calls_agree(self):
        rng = np.random.default_rng(19)
        x = rng.normal(size=(3, 4))
        lstm_cell = nn.LSTMCell(4, 3, rng=np.random.default_rng(19))
        gru_cell = nn.GRUCell(4, 3, rng=np.random.default_rng(19))
        with use_fused(True):
            hf, cf = lstm_cell(Tensor(x))
            gf = gru_cell(Tensor(x))
        with use_fused(False):
            hc, cc = lstm_cell(Tensor(x))
            gc = gru_cell(Tensor(x))
        assert np.array_equal(hf.numpy(), hc.numpy())
        assert np.array_equal(cf.numpy(), cc.numpy())
        assert np.array_equal(gf.numpy(), gc.numpy())


class TestEscapeHatch:
    def test_training_losses_identical_across_paths(self, taobao_world):
        """A short real training run must be path-independent (satellite)."""
        from repro.core.rapid import RapidConfig, make_rapid_variant
        from repro.core.trainer import TrainConfig, train_rapid
        from repro.data import RankingRequest

        world = taobao_world
        histories = world.sample_histories()
        rng = np.random.default_rng(0)
        requests = []
        for _ in range(24):
            user = int(rng.integers(world.config.num_users))
            items = rng.choice(world.config.num_items, size=6, replace=False)
            clicks = (rng.random(6) < 0.4).astype(float)
            requests.append(
                RankingRequest(user, items, rng.normal(size=6), clicks=clicks)
            )
        config = RapidConfig(
            user_dim=world.population.feature_dim,
            item_dim=world.catalog.feature_dim,
            num_topics=world.catalog.num_topics,
            hidden=6,
            seed=0,
        )
        losses = {}
        for flag in (True, False):
            with use_fused(flag):
                model = make_rapid_variant("rapid-pro", config)
                losses[flag] = np.asarray(
                    train_rapid(
                        model,
                        requests,
                        world.catalog,
                        world.population,
                        histories,
                        config=TrainConfig(epochs=2, batch_size=8, seed=0),
                    )
                )
        assert np.allclose(losses[True], losses[False], atol=1e-8)


_KERNELS = {
    "lstm_cell_fused": lstm_cell_fused,
    "gru_cell_fused": gru_cell_fused,
    "lstm_scan_fused": lstm_scan_fused,
    "gru_scan_fused": gru_scan_fused,
}


def _installed(name: str):
    return Tensor.__dict__[name].__func__


class TestReferenceSwap:
    """``use_fused`` selects an implementation by substituting ``Tensor`` ops."""

    def test_false_installs_references_then_restores_kernels(self):
        with use_fused(False):
            for name, ref in reference.REFERENCE_OPS.items():
                assert _installed(name) is ref
        for name, kernel in _KERNELS.items():
            assert _installed(name) is kernel

    def test_nesting_and_exception_restore(self):
        with pytest.raises(RuntimeError, match="boom"):
            with use_fused(False):
                with use_fused(True):
                    for name, kernel in _KERNELS.items():
                        assert _installed(name) is kernel
                for name, ref in reference.REFERENCE_OPS.items():
                    assert _installed(name) is ref
                with use_fused(True):
                    raise RuntimeError("boom")
        for name, kernel in _KERNELS.items():
            assert _installed(name) is kernel

    def test_monkeypatched_op_survives_true_inside_false(self, monkeypatch):
        def patched(*args, **kwargs):
            return lstm_cell_fused(*args, **kwargs)

        monkeypatch.setattr(Tensor, "lstm_cell_fused", staticmethod(patched))
        with use_fused(True):
            assert _installed("lstm_cell_fused") is patched
        with use_fused(False):
            assert _installed("lstm_cell_fused") is reference.lstm_cell
            with use_fused(True):
                assert _installed("lstm_cell_fused") is patched
                with use_fused(False):
                    with use_fused(True):
                        assert _installed("lstm_cell_fused") is patched
                    assert _installed("lstm_cell_fused") is reference.lstm_cell
                assert _installed("lstm_cell_fused") is patched
            assert _installed("lstm_cell_fused") is reference.lstm_cell
        assert _installed("lstm_cell_fused") is patched

    def test_env_vars_do_not_switch_the_layers(self, monkeypatch):
        from repro.obs.autograd import op_stats, profile_ops

        monkeypatch.setenv("REPRO_NN_FUSED", "0")
        monkeypatch.setenv("REPRO_NN_INFER", "0")
        lstm = nn.LSTM(4, 3, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 4)))
        assert _installed("lstm_scan_fused") is lstm_scan_fused
        with profile_ops():
            outputs, final = lstm(x)
            (_loss(outputs) + _loss(final)).backward()
            ops = {row["op"] for row in op_stats()}
        assert "lstm_scan_fused" in ops
        assert not ops & {"sigmoid", "tanh", "stack"}


class TestZeroStateCache:
    def test_same_object_per_shape(self):
        a = zero_state(4, 3)
        b = zero_state(4, 3)
        c = zero_state(2, 3)
        assert a is b
        assert c is not a
        assert not a.numpy().flags.writeable
        assert np.array_equal(a.numpy(), np.zeros((4, 3)))

    def test_cells_do_not_leak_state_between_calls(self):
        cell = nn.LSTMCell(3, 2, rng=np.random.default_rng(0))
        x = Tensor(np.ones((2, 3)))
        h1, c1 = cell(x)
        h2, c2 = cell(x)
        assert np.array_equal(h1.numpy(), h2.numpy())
        assert np.array_equal(c1.numpy(), c2.numpy())


class TestProfilerIntegration:
    def test_fused_ops_registered(self):
        from repro.nn.tensor import PROFILED_OPS

        for op in (
            "lstm_cell_fused",
            "gru_cell_fused",
            "lstm_scan_fused",
            "gru_scan_fused",
        ):
            assert op in PROFILED_OPS
        assert Tensor.lstm_cell_fused is lstm_cell_fused
        assert Tensor.gru_cell_fused is gru_cell_fused

    def test_profiler_attributes_fused_time(self):
        from repro.obs.autograd import op_stats, profile_ops

        lstm = nn.LSTM(4, 3, rng=np.random.default_rng(0))
        gru = nn.GRU(4, 3, rng=np.random.default_rng(0))
        lstm_cell = nn.LSTMCell(4, 3, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 5, 4)))
        x_t = Tensor(np.random.default_rng(2).normal(size=(2, 4)))
        with use_fused(True), profile_ops():
            outputs, final = lstm(x)
            _loss(outputs).backward()
            outputs, final = gru(x)
            _loss(outputs).backward()
            h, c = lstm_cell(x_t)
            (_loss(h) + _loss(c)).backward()
            stats = {row["op"]: row for row in op_stats()}
        # Sequence layers run as one fused scan node per call...
        for op in ("lstm_scan_fused", "gru_scan_fused"):
            assert op in stats
            assert stats[op]["forward_calls"] == 1
            assert stats[op]["backward_calls"] == 1
        # ...while a bare cell call profiles under the cell kernel.
        assert stats["lstm_cell_fused"]["forward_calls"] == 1
        assert stats["lstm_cell_fused"]["backward_calls"] > 0

    def test_infer_scan_is_profiled_once(self):
        from repro.obs.autograd import op_stats, profile_ops

        bilstm = nn.BiLSTM(6, 8, rng=np.random.default_rng(0))
        x = np.random.default_rng(1).normal(size=(16, 50, 6))
        with profile_ops():
            for _ in range(20):
                bilstm.infer(x)
            scans = [
                (row["op"], row["forward_calls"])
                for row in op_stats()
                if "scan" in row["op"]
            ]
        assert scans == [("bilstm_scan", 20)]

    def test_report_renders_fused_share_line(self):
        from repro.obs.report import render_report

        records = [
            {
                "run_id": "r",
                "ts": 0.0,
                "event": "autograd.op",
                "op": "lstm_cell_fused",
                "forward_calls": 10,
                "forward_ms": 5.0,
                "backward_calls": 10,
                "backward_ms": 5.0,
                "total_ms": 10.0,
            },
            {
                "run_id": "r",
                "ts": 1.0,
                "event": "autograd.op",
                "op": "matmul",
                "forward_calls": 10,
                "forward_ms": 15.0,
                "backward_calls": 10,
                "backward_ms": 15.0,
                "total_ms": 30.0,
            },
        ]
        text = render_report(records)
        assert "lstm_cell_fused" in text
        assert "fused kernels" in text
        assert "25.0% of profiled op time" in text
