"""RAPID model tests: components, variants, heads, training."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro import nn
from repro.core import (
    RAPID_VARIANTS,
    ListwiseRelevanceEstimator,
    PersonalizedDiversityEstimator,
    RapidConfig,
    RapidModel,
    RapidReranker,
    TrainConfig,
    make_rapid_variant,
    train_rapid,
)
from repro.core.trainer import backward_batch, rapid_loss
from repro.data import RankingRequest, build_batch
from repro.eval import make_reranker
from repro.nn import inference


@pytest.fixture(scope="module")
def world_and_batch(taobao_world):
    world = taobao_world
    histories = world.sample_histories()
    rng = np.random.default_rng(0)
    requests = []
    for _ in range(8):
        user = int(rng.integers(world.config.num_users))
        items = rng.choice(world.config.num_items, size=10, replace=False)
        clicks = (rng.random(10) < 0.3).astype(float)
        requests.append(
            RankingRequest(user, items, rng.normal(size=10), clicks=clicks)
        )
    batch = build_batch(requests, world.catalog, world.population, histories)
    return world, histories, requests, batch


def _config(world, **overrides):
    base = dict(
        user_dim=world.population.feature_dim,
        item_dim=world.catalog.feature_dim,
        num_topics=world.catalog.num_topics,
        hidden=8,
        seed=0,
    )
    base.update(overrides)
    return RapidConfig(**base)


class TestRelevanceEstimator:
    def test_bilstm_output_shape(self, world_and_batch):
        world, _, _, batch = world_and_batch
        est = ListwiseRelevanceEstimator(
            world.population.feature_dim,
            world.catalog.feature_dim,
            world.catalog.num_topics,
            hidden=8,
        )
        out = est(batch)
        assert out.shape == (batch.batch_size, batch.list_length, 16)

    def test_transformer_output_shape(self, world_and_batch):
        world, _, _, batch = world_and_batch
        est = ListwiseRelevanceEstimator(
            world.population.feature_dim,
            world.catalog.feature_dim,
            world.catalog.num_topics,
            hidden=8,
            encoder="transformer",
        )
        assert est(batch).shape == (batch.batch_size, batch.list_length, 16)

    def test_unknown_encoder_raises(self):
        with pytest.raises(ValueError):
            ListwiseRelevanceEstimator(4, 4, 3, encoder="mamba")


class TestDiversityEstimator:
    def test_preference_distribution_is_distribution(self, world_and_batch):
        world, _, _, batch = world_and_batch
        est = PersonalizedDiversityEstimator(
            world.population.feature_dim,
            world.catalog.feature_dim,
            world.catalog.num_topics,
            hidden=8,
        )
        theta = est.preference_distribution(batch).numpy()
        assert theta.shape == (batch.batch_size, world.catalog.num_topics)
        assert np.allclose(theta.sum(axis=1), 1.0)
        assert (theta >= 0).all()

    def test_delta_shape_and_bounds(self, world_and_batch):
        world, _, _, batch = world_and_batch
        est = PersonalizedDiversityEstimator(
            world.population.feature_dim,
            world.catalog.feature_dim,
            world.catalog.num_topics,
            hidden=8,
        )
        delta = est(batch).numpy()
        assert delta.shape == (
            batch.batch_size,
            batch.list_length,
            world.catalog.num_topics,
        )
        assert (delta >= 0).all() and (delta <= 1).all()

    def test_mean_aggregator(self, world_and_batch):
        world, _, _, batch = world_and_batch
        est = PersonalizedDiversityEstimator(
            world.population.feature_dim,
            world.catalog.feature_dim,
            world.catalog.num_topics,
            hidden=8,
            aggregator="mean",
        )
        assert est(batch).shape[0] == batch.batch_size

    def test_invalid_options_raise(self):
        with pytest.raises(ValueError):
            PersonalizedDiversityEstimator(4, 4, 3, aggregator="sum")
        with pytest.raises(ValueError):
            PersonalizedDiversityEstimator(4, 4, 3, marginal_mode="windowed")


class TestRapidModel:
    def test_forward_probabilities(self, world_and_batch):
        world, _, _, batch = world_and_batch
        model = RapidModel(_config(world))
        probs = model(batch, rng=np.random.default_rng(0)).numpy()
        assert probs.shape == (batch.batch_size, batch.list_length)
        assert ((probs > 0) & (probs < 1)).all()

    def test_inference_scores_deterministic_in_eval(self, world_and_batch):
        world, _, _, batch = world_and_batch
        model = RapidModel(_config(world))
        a = model.inference_scores(batch)
        b = model.inference_scores(batch)
        assert np.array_equal(a, b)

    def test_inference_scores_ignore_retired_env_switches(
        self, world_and_batch, monkeypatch
    ):
        """Serving takes the tape-free path whatever the environment says."""
        world, _, _, batch = world_and_batch
        monkeypatch.setenv("REPRO_NN_FUSED", "0")
        monkeypatch.setenv("REPRO_NN_INFER", "0")
        model = RapidModel(_config(world))
        calls = []
        infer = model.head.infer_scores

        def spy(features):
            calls.append(features.dtype)
            return infer(features)

        monkeypatch.setattr(model.head, "infer_scores", spy)
        scores = model.inference_scores(batch)
        assert calls == [np.dtype(np.float32)]
        assert scores.dtype == np.float64

    def test_probabilistic_ucb_exceeds_mean(self, world_and_batch):
        """UCB = sigmoid(mu + sigma) must be >= sigmoid(mu) elementwise."""
        world, _, _, batch = world_and_batch
        model = RapidModel(_config(world, probabilistic=True))
        model.eval()
        mean_scores = model(batch).numpy()
        ucb_scores = model.inference_scores(batch)
        assert (ucb_scores >= mean_scores - 1e-12).all()

    def test_all_variants_build_and_run(self, world_and_batch):
        """Every variant serves in float32 within drift of its float64 tape."""
        world, _, _, batch = world_and_batch
        for name in RAPID_VARIANTS:
            model = make_rapid_variant(name, _config(world))
            scores = model.inference_scores(batch)
            assert scores.shape == (batch.batch_size, batch.list_length)
            with inference.use_infer(False):
                tape = model.inference_scores(batch)
            np.testing.assert_array_equal(
                np.argsort(-scores, axis=1, kind="stable"),
                np.argsort(-tape, axis=1, kind="stable"),
                err_msg=name,
            )
            np.testing.assert_allclose(scores, tape, rtol=0, atol=1e-5, err_msg=name)

    def test_variant_flags(self, world_and_batch):
        world, _, _, _ = world_and_batch
        rnn = make_rapid_variant("rapid-rnn", _config(world))
        assert rnn.diversity is None
        det = make_rapid_variant("rapid-det", _config(world))
        assert type(det.head).__name__ == "DeterministicHead"
        trans = make_rapid_variant("rapid-trans", _config(world))
        assert trans.relevance.encoder_kind == "transformer"

    def test_unknown_variant_raises(self, world_and_batch):
        world, _, _, _ = world_and_batch
        with pytest.raises(ValueError):
            make_rapid_variant("rapid-quantum", _config(world))

    def test_preference_distribution_unavailable_without_diversity(
        self, world_and_batch
    ):
        world, _, _, batch = world_and_batch
        model = make_rapid_variant("rapid-rnn", _config(world))
        with pytest.raises(RuntimeError):
            model.preference_distribution(batch)


class TestTraining:
    def test_loss_decreases(self, world_and_batch):
        world, histories, requests, _ = world_and_batch
        model = RapidModel(_config(world))
        losses = train_rapid(
            model,
            requests * 4,
            world.catalog,
            world.population,
            histories,
            config=TrainConfig(epochs=5, batch_size=8, lr=0.02),
        )
        assert len(losses) == 5
        assert losses[-1] < losses[0]

    def test_empty_requests_raise(self, world_and_batch):
        world, histories, _, _ = world_and_batch
        model = RapidModel(_config(world))
        with pytest.raises(ValueError):
            train_rapid(model, [], world.catalog, world.population, histories)

    def test_reranker_interface(self, world_and_batch):
        world, histories, requests, batch = world_and_batch
        reranker = RapidReranker(
            _config(world), "rapid-det", TrainConfig(epochs=1, batch_size=8)
        )
        reranker.fit(requests, world.catalog, world.population, histories)
        perm = reranker.rerank(batch)
        assert perm.shape == (batch.batch_size, batch.list_length)
        for row in perm:
            assert sorted(row) == list(range(batch.list_length))


class TestBackwardReleasesGraph:
    def test_step_graph_is_freed_while_loss_is_held(self, tiny_bundle):
        bundle = tiny_bundle
        model = make_reranker("rapid-pro", bundle).model
        optimizer = nn.Adam(model.parameters(), lr=0.01)
        batch = build_batch(
            bundle.train_requests[:16],
            bundle.world.catalog,
            bundle.world.population,
            bundle.histories,
        )
        probes = []

        def probed_loss(model, batch, rng):
            loss = rapid_loss(model, batch, rng)
            probes.append(weakref.ref(loss._parents[0]))
            return loss

        loss, _ = backward_batch(
            model, optimizer, batch, np.random.default_rng(0), probed_loss
        )
        assert probes[0]() is None
        assert loss._parents == ()
        assert loss.grad is None
        assert all(p.grad is not None for p in model.parameters())
