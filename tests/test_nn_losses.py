"""Tests for ranking losses: pointwise, pairwise, listwise."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Tensor, losses


class TestPointwise:
    def test_masked_positions_ignored(self):
        probs = Tensor(np.array([[0.9, 0.0001]]))
        clicks = np.array([[1.0, 1.0]])
        mask = np.array([[True, False]])
        loss = losses.pointwise_bce(probs, clicks, mask=mask).item()
        assert loss == pytest.approx(-np.log(0.9), abs=1e-6)

    def test_logits_variant_matches(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(3, 5))
        clicks = (rng.random((3, 5)) < 0.4).astype(float)
        a = losses.pointwise_bce(Tensor(logits).sigmoid(), clicks).item()
        b = losses.pointwise_bce_with_logits(Tensor(logits), clicks).item()
        assert a == pytest.approx(b, abs=1e-8)


class TestPairwise:
    def test_hinge_zero_when_margin_met(self):
        scores = Tensor(np.array([[5.0, 0.0]]))
        clicks = np.array([[1.0, 0.0]])
        assert losses.pairwise_hinge(scores, clicks).item() == 0.0

    def test_hinge_positive_when_violated(self):
        scores = Tensor(np.array([[0.0, 5.0]]))
        clicks = np.array([[1.0, 0.0]])
        assert losses.pairwise_hinge(scores, clicks).item() == pytest.approx(6.0)

    def test_bpr_decreases_with_separation(self):
        clicks = np.array([[1.0, 0.0]])
        tight = losses.pairwise_bpr(Tensor(np.array([[0.1, 0.0]])), clicks).item()
        wide = losses.pairwise_bpr(Tensor(np.array([[3.0, 0.0]])), clicks).item()
        assert wide < tight

    def test_no_pairs_gives_zero(self):
        scores = Tensor(np.array([[1.0, 2.0]]))
        assert losses.pairwise_bpr(scores, np.array([[1.0, 1.0]])).item() == 0.0
        assert losses.pairwise_hinge(scores, np.array([[0.0, 0.0]])).item() == 0.0

    def test_mask_excludes_items_from_pairs(self):
        scores = Tensor(np.array([[0.0, 5.0, -1.0]]))
        clicks = np.array([[1.0, 0.0, 0.0]])
        mask = np.array([[True, False, True]])  # exclude the violating neg
        loss = losses.pairwise_hinge(scores, clicks, mask=mask).item()
        assert loss == pytest.approx(0.0)

    def test_gradient_direction(self):
        scores = Tensor(np.array([[0.0, 0.0]]), requires_grad=True)
        clicks = np.array([[1.0, 0.0]])
        losses.pairwise_bpr(scores, clicks).backward()
        assert scores.grad[0, 0] < 0  # pushing positive score up
        assert scores.grad[0, 1] > 0


class TestListwise:
    def test_perfect_concentration_low_loss(self):
        scores = Tensor(np.array([[10.0, -10.0, -10.0]]))
        clicks = np.array([[1.0, 0.0, 0.0]])
        assert losses.listwise_softmax_ce(scores, clicks).item() < 1e-6

    def test_uniform_scores_loss_is_log_n(self):
        scores = Tensor(np.zeros((1, 4)))
        clicks = np.array([[1.0, 0.0, 0.0, 0.0]])
        loss = losses.listwise_softmax_ce(scores, clicks).item()
        assert loss == pytest.approx(np.log(4.0), abs=1e-9)

    def test_no_clicks_contributes_zero(self):
        scores = Tensor(np.zeros((1, 4)))
        clicks = np.zeros((1, 4))
        assert losses.listwise_softmax_ce(scores, clicks).item() == 0.0

    def test_multiple_clicks_normalized(self):
        scores = Tensor(np.zeros((1, 2)))
        clicks = np.array([[1.0, 1.0]])
        loss = losses.listwise_softmax_ce(scores, clicks).item()
        assert loss == pytest.approx(np.log(2.0), abs=1e-9)
