"""Deeper eval-pipeline tests: batching chunks, metric consistency,
factory wiring details."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.eval import evaluate_reranker, make_reranker
from repro.eval.experiment import EvaluationResult


class TestEvaluationChunking:
    def test_chunked_evaluation_matches_single_batch(self, tiny_bundle):
        """Evaluating in small chunks must give identical metrics."""
        whole = evaluate_reranker(None, tiny_bundle, eval_batch_size=10_000)
        chunked = evaluate_reranker(None, tiny_bundle, eval_batch_size=7)
        for metric, value in whole.metrics.items():
            assert chunked[metric] == pytest.approx(value)

    def test_custom_ks(self, tiny_bundle):
        result = evaluate_reranker(None, tiny_bundle, ks=(3,))
        assert "click@3" in result.metrics
        assert "click@5" not in result.metrics


class TestMetricConsistency:
    def test_expected_clicks_monotone_in_k(self, tiny_bundle):
        result = evaluate_reranker(None, tiny_bundle)
        assert result["click@10"] >= result["click@5"]
        assert result["div@10"] >= result["div@5"]
        assert result["satis@10"] >= result["satis@5"]

    def test_reranking_does_not_change_div_at_full_length(self, tiny_bundle):
        """div@L is permutation-invariant: the same items are covered."""
        length = tiny_bundle.config.list_length
        init = evaluate_reranker(None, tiny_bundle, ks=(length,))
        mmr = evaluate_reranker(
            make_reranker("mmr", tiny_bundle), tiny_bundle, ks=(length,)
        )
        assert mmr[f"div@{length}"] == pytest.approx(init[f"div@{length}"])

    def test_expected_click_rows_bounded_by_attraction(self, tiny_bundle):
        """Expected per-position clicks are attraction times examination,
        so click@L <= sum of attraction probabilities."""
        length = tiny_bundle.config.list_length
        result = evaluate_reranker(None, tiny_bundle, ks=(length,))
        phi_sums = [
            tiny_bundle.click_model.attraction_probabilities(
                r.user_id, r.items
            ).sum()
            for r in tiny_bundle.test_requests
        ]
        assert result[f"click@{length}"] <= np.mean(phi_sums) + 1e-9


class TestResultContainer:
    def test_getitem(self):
        result = EvaluationResult(metrics={"click@5": 1.5})
        assert result["click@5"] == 1.5
        with pytest.raises(KeyError):
            result["click@99"]


class TestFactoryWiring:
    def test_neural_models_inherit_train_config(self, tiny_bundle):
        config = tiny_bundle.config
        new_train = dataclasses.replace(config.train, epochs=7, lr=0.123)
        tiny_bundle.config = dataclasses.replace(config, train=new_train)
        try:
            prm = make_reranker("prm", tiny_bundle)
            assert prm.train_config.epochs == 7
            assert prm.train_config.lr == pytest.approx(0.123)
            rapid = make_reranker("rapid-pro", tiny_bundle)
            assert rapid.train_config.epochs == 7
        finally:
            tiny_bundle.config = config

    def test_adpmmr_gets_histories(self, tiny_bundle):
        adp = make_reranker("adpmmr", tiny_bundle)
        assert adp.histories is tiny_bundle.histories

    def test_rapid_dims_match_world(self, tiny_bundle):
        rapid = make_reranker("rapid-det", tiny_bundle)
        config = rapid.model.config
        assert config.user_dim == tiny_bundle.world.population.feature_dim
        assert config.num_topics == tiny_bundle.world.catalog.num_topics
