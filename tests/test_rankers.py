"""Initial ranker tests: DIN, SVMRank, LambdaMART, regression trees."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.rankers import (
    DINRanker,
    LambdaMARTRanker,
    RegressionTree,
    SVMRankRanker,
    pointwise_features,
)
from repro.rankers import din


@pytest.fixture(scope="module")
def training_setup(taobao_world):
    world = taobao_world
    histories = world.sample_histories()
    interactions = world.sample_ranker_training(1500)
    users, candidates = world.sample_candidate_sets(40, 10)
    return world, histories, interactions, users, candidates


def _top_relevance(world, users, items_sorted, k=5):
    rel = world.relevance_matrix()
    return float(
        np.mean([rel[u, row[:k]].mean() for u, row in zip(users, items_sorted)])
    )


def _random_relevance(world, users, candidates):
    rel = world.relevance_matrix()
    return float(np.mean([rel[u, c].mean() for u, c in zip(users, candidates)]))


class TestPointwiseFeatures:
    def test_dimension(self, taobao_world):
        world = taobao_world
        feats = pointwise_features(
            np.array([0, 1]), np.array([2, 3]), world.catalog, world.population
        )
        q_u = world.population.feature_dim
        q_v = world.catalog.feature_dim
        assert feats.shape == (2, q_u + q_v + 5 + q_u * q_v)

    def test_cross_term_is_outer_product(self, taobao_world):
        world = taobao_world
        feats = pointwise_features(
            np.array([0]), np.array([1]), world.catalog, world.population
        )
        q_u = world.population.feature_dim
        q_v = world.catalog.feature_dim
        cross = feats[0, q_u + q_v + 5 :].reshape(q_u, q_v)
        expected = np.outer(
            world.population.features[0], world.catalog.features[1]
        )
        assert np.allclose(cross, expected)


@pytest.mark.parametrize(
    "make_ranker",
    [
        lambda: SVMRankRanker(epochs=3, seed=0),
        pytest.param(
            lambda: LambdaMARTRanker(num_trees=8), marks=pytest.mark.slow
        ),
        lambda: DINRanker(epochs=2, seed=0),
    ],
    ids=["svmrank", "lambdamart", "din"],
)
class TestRankersLearnSignal:
    def test_top_items_beat_random(self, training_setup, make_ranker):
        world, histories, interactions, users, candidates = training_setup
        ranker = make_ranker()
        ranker.fit(interactions, world.catalog, world.population, histories=histories)
        items, scores = ranker.rank(
            users, candidates, world.catalog, world.population, histories=histories
        )
        assert items.shape == candidates.shape
        # scores must be sorted descending per row
        assert (np.diff(scores, axis=1) <= 1e-9).all()
        top = _top_relevance(world, users, items)
        baseline = _random_relevance(world, users, candidates)
        assert top > baseline + 0.01

    def test_score_before_fit_raises(self, training_setup, make_ranker):
        world, histories, _, users, candidates = training_setup
        with pytest.raises(RuntimeError):
            make_ranker().score(
                users, candidates, world.catalog, world.population, histories=histories
            )


class TestDIN:
    def test_requires_histories(self, training_setup):
        world, _, interactions, _, _ = training_setup
        with pytest.raises(ValueError):
            DINRanker(epochs=1).fit(interactions, world.catalog, world.population)

    def test_score_in_bounded_chunks_bitwise_unchunked(
        self, training_setup, monkeypatch
    ):
        """Chunked scoring equals one unchunked forward, bit for bit, and
        its peak allocation stays flat as the list count grows 10x."""
        world, histories, interactions, _, _ = training_setup
        ranker = DINRanker(epochs=1, seed=0).fit(
            interactions[:300], world.catalog, world.population, histories
        )
        rng = np.random.default_rng(5)
        chunk = din._SCORE_CHUNK_LISTS

        def lists(count):
            users = rng.integers(world.config.num_users, size=count)
            candidates = np.stack(
                [
                    rng.choice(world.config.num_items, size=10, replace=False)
                    for _ in range(count)
                ]
            )
            return users, candidates

        def score(users, candidates):
            return ranker.score(
                users, candidates, world.catalog, world.population, histories
            )

        # Ragged tails: one that rides with the chunk before it, one alone.
        for count in (2 * chunk + 5, 2 * chunk + chunk // 2 + 3):
            users, candidates = lists(count)
            chunked = score(users, candidates)
            with monkeypatch.context() as patch:
                patch.setattr(din, "_SCORE_CHUNK_LISTS", count)
                unchunked = score(users, candidates)
            assert chunked.view(np.uint64).tolist() == (
                unchunked.view(np.uint64).tolist()
            )

        def peak_bytes(count):
            batch = lists(count)
            tracemalloc.start()
            try:
                score(*batch)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small = chunk + 5
        assert peak_bytes(10 * small) < 3 * peak_bytes(small)


class TestSVMRank:
    def test_invalid_c(self):
        with pytest.raises(ValueError):
            SVMRankRanker(c=0.0)


class TestLambdaMART:
    def test_requires_mixed_labels(self, taobao_world):
        world = taobao_world
        interactions = np.array([[0, 1, 1], [0, 2, 1]])  # all positive
        with pytest.raises(ValueError):
            LambdaMARTRanker(num_trees=2).fit(
                interactions, world.catalog, world.population
            )

    def test_lambda_gradients_push_positives_up(self):
        scores = np.array([0.0, 0.0, 0.0])
        labels = np.array([1.0, 0.0, 0.0])
        lambdas = LambdaMARTRanker._lambdas(scores, labels, sigma=1.0)
        assert lambdas[0] > 0
        assert lambdas[1] < 0 and lambdas[2] < 0
        assert lambdas.sum() == pytest.approx(0.0, abs=1e-12)

    def test_invalid_tree_count(self):
        with pytest.raises(ValueError):
            LambdaMARTRanker(num_trees=0)


class TestRegressionTree:
    def test_fits_step_function(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, size=(300, 2))
        y = np.where(x[:, 0] > 0.0, 2.0, -2.0)
        tree = RegressionTree(max_depth=3).fit(x, y)
        pred = tree.predict(x)
        # quantile thresholds may miss the exact boundary; allow a few
        # boundary points to be misassigned
        assert np.mean((pred - y) ** 2) < 0.5

    def test_depth_one_is_single_split(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(size=(100, 1))
        y = x[:, 0]
        tree = RegressionTree(max_depth=1).fit(x, y)
        assert len(np.unique(tree.predict(x))) <= 2

    def test_constant_target_single_leaf(self):
        x = np.random.default_rng(2).uniform(size=(50, 3))
        tree = RegressionTree().fit(x, np.ones(50))
        assert np.allclose(tree.predict(x), 1.0)

    def test_weights_bias_leaf_values(self):
        x = np.zeros((4, 1))  # no split possible
        y = np.array([0.0, 0.0, 10.0, 10.0])
        w = np.array([1.0, 1.0, 3.0, 3.0])
        tree = RegressionTree().fit(x, y, weights=w)
        assert tree.predict(np.zeros((1, 1)))[0] == pytest.approx(7.5)

    def test_predict_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            RegressionTree().predict(np.zeros((1, 2)))

    def test_invalid_depth(self):
        with pytest.raises(ValueError):
            RegressionTree(max_depth=0)
