"""Tests for repro.nn.functional: activations, losses, masked softmax."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor
from repro.nn import functional as F


class TestMaskedSoftmax:
    def test_masked_positions_get_zero(self):
        x = Tensor(np.zeros((2, 4)))
        mask = np.array([[True, True, False, False], [True, True, True, True]])
        out = F.masked_softmax(x, mask).numpy()
        assert np.allclose(out[0], [0.5, 0.5, 0.0, 0.0])
        assert np.allclose(out[1], 0.25)

    def test_fully_masked_row_is_zero_not_nan(self):
        x = Tensor(np.ones((1, 3)))
        mask = np.zeros((1, 3), dtype=bool)
        out = F.masked_softmax(x, mask).numpy()
        assert np.allclose(out, 0.0)
        assert not np.isnan(out).any()

    def test_matches_plain_softmax_when_unmasked(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(3, 5))
        out = F.masked_softmax(Tensor(x), np.ones((3, 5), dtype=bool)).numpy()
        assert np.allclose(out, Tensor(x).softmax(axis=-1).numpy())

    def test_gradient_flows_through_unmasked(self):
        x = Tensor(np.zeros((1, 3)), requires_grad=True)
        mask = np.array([[True, True, False]])
        F.masked_softmax(x, mask)[0, 0].reshape(1).sum().backward()
        assert x.grad is not None
        assert x.grad[0, 2] == 0.0


class TestBinaryCrossEntropy:
    def test_perfect_prediction_near_zero_loss(self):
        probs = Tensor(np.array([0.999999, 0.000001]))
        loss = F.binary_cross_entropy(probs, np.array([1.0, 0.0]))
        assert loss.item() < 1e-4

    def test_bce_probability_vs_logits_agree(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(4, 3))
        targets = (rng.random((4, 3)) < 0.5).astype(float)
        a = F.binary_cross_entropy(Tensor(logits).sigmoid(), targets).item()
        b = F.binary_cross_entropy_with_logits(Tensor(logits), targets).item()
        assert a == pytest.approx(b, abs=1e-8)

    def test_weighted_ignores_masked_entries(self):
        probs = Tensor(np.array([[0.9, 0.001]]))
        targets = np.array([[1.0, 1.0]])
        weight = np.array([[1.0, 0.0]])  # second entry (terrible) masked out
        loss = F.binary_cross_entropy(probs, targets, weight=weight).item()
        assert loss == pytest.approx(-np.log(0.9), abs=1e-9)

    def test_logits_extreme_values_stable(self):
        logits = Tensor(np.array([1000.0, -1000.0]))
        loss = F.binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(loss.item())
        assert loss.item() < 1e-6

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bce_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        probs = Tensor(rng.random(8))
        targets = (rng.random(8) < 0.5).astype(float)
        assert F.binary_cross_entropy(probs, targets).item() >= 0.0


class TestMiscFunctional:
    def test_dropout_identity_in_eval(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((10, 10)))
        out = F.dropout(x, 0.5, rng, training=False)
        assert np.array_equal(out.numpy(), x.numpy())

    def test_dropout_scales_in_train(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = F.dropout(x, 0.5, rng, training=True).numpy()
        kept = out[out > 0]
        assert np.allclose(kept, 2.0)
        assert abs(out.mean() - 1.0) < 0.05

    def test_dropout_invalid_p(self):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.5, np.random.default_rng(0), True)

    def test_activation_wrappers(self):
        x = np.array([-1.0, 0.0, 1.0])
        assert np.allclose(F.relu(Tensor(x)).numpy(), [0, 0, 1])
        assert np.allclose(F.tanh(Tensor(x)).numpy(), np.tanh(x))
        assert np.allclose(
            F.sigmoid(Tensor(x)).numpy(), 1 / (1 + np.exp(-x))
        )
        assert np.allclose(
            F.log_softmax(Tensor(x)).numpy(),
            np.log(F.softmax(Tensor(x)).numpy()),
        )
