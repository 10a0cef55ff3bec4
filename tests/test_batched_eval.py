"""Batched evaluation: broadcasting click models, (N, L) metrics, and
``evaluate_reranker`` against the per-list reference.

``repro.testing.reference.evaluate_reranker_reference`` scores one list
at a time (a DCM call and the metric formulas per list).
``evaluate_reranker`` scores the pass as one (N, L) array: bitwise equal
when every list has the same length, and within 1e-12 when shorter lists
are zero-padded (the padding only reorders float sums).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import repro.eval.experiment as experiment
from repro.click import (
    CascadeClickModel,
    DependentClickModel,
    PositionBasedModel,
    expected_clicks_curve,
    satisfaction_probability,
)
from repro.core.trainer import TrainConfig
from repro.data import RankingRequest
from repro.eval import ExperimentConfig, evaluate_reranker, make_reranker, prepare_bundle
from repro.metrics import clicks_at_k, div_at_k, ndcg_at_k, revenue_at_k, satis_at_k
from repro.testing.reference import evaluate_reranker_reference

KS = (3, 5, 10, 25)  # 25 exceeds every list


def small_config(dataset: str, eval_mode: str = "expected") -> ExperimentConfig:
    return ExperimentConfig(
        dataset=dataset,
        scale="tiny",
        list_length=10,
        num_train_requests=20,
        num_test_requests=60,
        ranker_interactions=800,
        hidden=8,
        train=TrainConfig(epochs=1, batch_size=32),
        eval_mode=eval_mode,
        seed=0,
    )


@pytest.fixture(scope="module")
def taobao_bundle():
    return prepare_bundle(small_config("taobao"))


@pytest.fixture(scope="module")
def appstore_bundle():
    return prepare_bundle(small_config("appstore", "logged"))


def with_mode(bundle, eval_mode):
    return dataclasses.replace(
        bundle, config=dataclasses.replace(bundle.config, eval_mode=eval_mode)
    )


def ragged(bundle, seed=0):
    """The bundle with each test list cut to a random length in 2..L."""
    rng = np.random.default_rng(seed)
    requests = []
    for r in bundle.test_requests:
        n = int(rng.integers(2, r.list_length + 1))
        requests.append(
            RankingRequest(
                r.user_id,
                r.items[:n],
                r.initial_scores[:n],
                clicks=r.clicks[:n],
                fully_observed=r.fully_observed,
            )
        )
    return dataclasses.replace(bundle, test_requests=requests)


class TestBroadcastingAttraction:
    @pytest.mark.parametrize(
        "make", [DependentClickModel, CascadeClickModel, PositionBasedModel]
    )
    def test_batched_rows_equal_scalar_calls(self, taobao_world, make):
        model = make(taobao_world, tradeoff=0.5)
        rng = np.random.default_rng(0)
        users = rng.integers(0, taobao_world.config.num_users, size=12)
        items = np.stack(
            [rng.choice(taobao_world.config.num_items, 9, replace=False) for _ in users]
        )
        batched = model.attraction_probabilities(users, items)
        assert batched.shape == items.shape
        for row, user in enumerate(users):
            scalar = model.attraction_probabilities(int(user), items[row])
            assert batched[row].tobytes() == scalar.tobytes()

    def test_batched_rows_follow_the_blend_formula(self, taobao_world):
        """phi = clip(lambda * alpha + (1 - lambda) * rho_u . zeta), each
        row with its own user's relevance and diversity weights."""
        model = DependentClickModel(taobao_world, tradeoff=0.3)
        rng = np.random.default_rng(4)
        users = rng.choice(taobao_world.config.num_users, size=6, replace=False)
        items = np.stack(
            [rng.choice(taobao_world.config.num_items, 7, replace=False) for _ in users]
        )
        batched = model.attraction_probabilities(users, items)
        relevance = taobao_world.relevance_matrix()
        for row, user in enumerate(users):
            tau = taobao_world.catalog.coverage[items[row]]
            uncovered = np.cumprod(np.vstack([np.ones(tau.shape[1]), 1.0 - tau]), axis=0)
            zeta = tau * uncovered[:-1]
            rho = taobao_world.population.diversity_weight[user]
            expected = 0.3 * relevance[user, items[row]] + 0.7 * (zeta @ rho)
            np.testing.assert_allclose(batched[row], np.clip(expected, 0, 1), rtol=1e-12)

    def test_closed_forms_broadcast_over_lists(self):
        rng = np.random.default_rng(1)
        phi, eps = rng.random((7, 6)), rng.random(6)
        curves = expected_clicks_curve(phi, eps)
        satis = satisfaction_probability(phi, eps)
        for row in range(len(phi)):
            assert curves[row].tobytes() == expected_clicks_curve(phi[row], eps).tobytes()
            assert satis[row].tobytes() == satisfaction_probability(phi[row], eps).tobytes()


class TestPaddedMetrics:
    def test_array_and_ragged_rows_agree(self):
        rng = np.random.default_rng(2)
        rows = [rng.random(n) for n in (4, 7, 2, 7)]
        padded = np.zeros((4, 7))
        for index, row in enumerate(rows):
            padded[index, : len(row)] = row
        for k in (1, 3, 7, 9):
            assert clicks_at_k(padded, k) == pytest.approx(clicks_at_k(rows, k), rel=1e-12)
            assert ndcg_at_k(padded, k) == pytest.approx(ndcg_at_k(rows, k), rel=1e-12)
            assert revenue_at_k(padded, padded, k) == pytest.approx(
                revenue_at_k(rows, rows, k), rel=1e-12
            )
            assert satis_at_k(padded, np.full(7, 0.5), k) == pytest.approx(
                satis_at_k(rows, np.full(7, 0.5), k), rel=1e-12
            )

    def test_div_accepts_padded_coverage(self):
        rng = np.random.default_rng(3)
        lists = [rng.random((n, 3)) for n in (5, 2)]
        padded = np.zeros((2, 5, 3))
        padded[0], padded[1, :2] = lists
        for k in (1, 2, 5, 8):
            assert div_at_k(padded, k) == div_at_k(lists, k)

    def test_wrong_rank_rejected(self):
        with pytest.raises(ValueError):
            div_at_k(np.zeros((4, 3)), 2)


def assert_parity(bundle, reranker_name, exact):
    reranker = make_reranker(reranker_name, bundle)
    got = evaluate_reranker(reranker, bundle, ks=KS, eval_batch_size=16)
    want = evaluate_reranker_reference(reranker, bundle, ks=KS, eval_batch_size=16)
    assert got.metrics.keys() == want.metrics.keys()
    for key, value in want.metrics.items():
        if exact:
            assert got.metrics[key] == value, key
        else:
            assert math.isclose(got.metrics[key], value, rel_tol=1e-12, abs_tol=1e-15), key
    for k in KS:
        if exact:
            assert np.array_equal(got.per_request_clicks[k], want.per_request_clicks[k])
        else:
            np.testing.assert_allclose(
                got.per_request_clicks[k], want.per_request_clicks[k], rtol=1e-12, atol=1e-15
            )


class TestEvaluateMatchesReference:
    @pytest.mark.parametrize("mode", ["expected", "logged"])
    @pytest.mark.parametrize("name", ["init", "mmr"])
    def test_equal_lengths_bitwise(self, taobao_bundle, mode, name):
        assert_parity(with_mode(taobao_bundle, mode), name, exact=True)

    @pytest.mark.parametrize("mode", ["expected", "logged"])
    @pytest.mark.parametrize("name", ["init", "mmr"])
    def test_ragged_lists_within_1e12(self, taobao_bundle, mode, name):
        assert_parity(ragged(with_mode(taobao_bundle, mode)), name, exact=False)

    @pytest.mark.parametrize("name", ["init", "mmr"])
    def test_revenue_bitwise(self, appstore_bundle, name):
        result = evaluate_reranker(None, appstore_bundle, ks=KS)
        assert "rev@5" in result.metrics
        assert_parity(appstore_bundle, name, exact=True)

    def test_revenue_ragged(self, appstore_bundle):
        assert_parity(ragged(appstore_bundle), "mmr", exact=False)


class TestAttributionContract:
    """perfbench's traced run attributes the evaluation pass by wrapping
    ``DependentClickModel.attraction_probabilities`` and the metric names
    looked up on ``repro.eval.experiment``."""

    WRAPPED_METRICS = ("clicks_at_k", "ndcg_at_k", "div_at_k", "satis_at_k")

    def test_one_attraction_call_per_pass(self, taobao_bundle, monkeypatch):
        calls = []
        original = DependentClickModel.attraction_probabilities

        def counted(self, *args, **kwargs):
            calls.append(args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(DependentClickModel, "attraction_probabilities", counted)
        evaluate_reranker(None, taobao_bundle, eval_batch_size=16)
        assert len(calls) == 1
        users, items = calls[0]
        assert items.shape == (len(taobao_bundle.test_requests), 10)
        assert users.shape == (len(taobao_bundle.test_requests),)

    def test_metrics_reached_through_module_names(self, taobao_bundle, monkeypatch):
        counts = dict.fromkeys(self.WRAPPED_METRICS, 0)
        for name in self.WRAPPED_METRICS:
            original = getattr(experiment, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(experiment, name, counted)
        ks = (5, 10)
        evaluate_reranker(None, taobao_bundle, ks=ks)
        assert counts == dict.fromkeys(self.WRAPPED_METRICS, len(ks))
