"""Deeper initial-ranker tests: DIN attention behavior, ranker contracts."""

from __future__ import annotations

import numpy as np
import pytest

from repro.rankers import DINRanker, LambdaMARTRanker, SVMRankRanker
from repro.rankers import din


def _gathered_history(ranker, catalog, histories):
    """The history features and mask DIN gathers for user 0."""
    ids = ranker._history_ids(np.array([0]), catalog, histories)
    return din._gather_history(catalog.features, ids)


class TestDINInternals:
    def test_history_arrays_truncate_to_recent(self, taobao_world):
        world = taobao_world
        ranker = DINRanker(history_length=5)
        histories = [np.arange(12)]
        features, mask = _gathered_history(ranker, world.catalog, histories)
        assert features.shape == (1, 5, world.catalog.feature_dim)
        assert mask.all()
        assert np.allclose(features[0, 0], world.catalog.features[7])

    def test_history_arrays_pad_short_history(self, taobao_world):
        world = taobao_world
        ranker = DINRanker(history_length=5)
        histories = [np.array([3, 4])]
        features, mask = _gathered_history(ranker, world.catalog, histories)
        assert mask[0].tolist() == [True, True, False, False, False]
        assert np.allclose(features[0, 2:], 0.0)

    def test_score_requires_histories(self, taobao_world):
        world = taobao_world
        histories = world.sample_histories()
        ranker = DINRanker(epochs=1)
        ranker.fit(
            world.sample_ranker_training(300),
            world.catalog,
            world.population,
            histories=histories,
        )
        with pytest.raises(ValueError):
            ranker.score(
                np.array([0]), np.array([[1, 2]]), world.catalog, world.population
            )

    def test_deterministic_given_seed(self, taobao_world):
        world = taobao_world
        histories = world.sample_histories()
        interactions = world.sample_ranker_training(300)
        users = np.array([0, 1])
        candidates = np.array([[1, 2, 3], [4, 5, 6]])

        def train_and_score():
            ranker = DINRanker(epochs=1, seed=7)
            ranker.fit(interactions, world.catalog, world.population, histories)
            return ranker.score(
                users, candidates, world.catalog, world.population, histories
            )

        assert np.allclose(train_and_score(), train_and_score())


class TestRankContract:
    @pytest.mark.parametrize(
        "make_ranker",
        [
            lambda: SVMRankRanker(epochs=2),
            pytest.param(
                lambda: LambdaMARTRanker(num_trees=4), marks=pytest.mark.slow
            ),
        ],
        ids=["svmrank", "lambdamart"],
    )
    def test_rank_returns_permuted_candidates(self, taobao_world, make_ranker):
        world = taobao_world
        histories = world.sample_histories()
        interactions = world.sample_ranker_training(500)
        ranker = make_ranker()
        ranker.fit(interactions, world.catalog, world.population, histories=histories)
        users = np.array([0, 1, 2])
        candidates = np.vstack(
            [
                np.random.default_rng(i).choice(
                    world.config.num_items, size=6, replace=False
                )
                for i in range(3)
            ]
        )
        items, scores = ranker.rank(
            users, candidates, world.catalog, world.population, histories=histories
        )
        for row in range(3):
            assert sorted(items[row].tolist()) == sorted(candidates[row].tolist())
            assert (np.diff(scores[row]) <= 1e-12).all()
