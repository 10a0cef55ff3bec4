"""Offline set-up against its per-pair references, bit for bit.

``DINRanker`` gathers one history per list from a per-user id table and
projects it once for the list's L candidates;
``repro.testing.reference`` keeps the per-(list, candidate) loop and
forward it replaced.  ``SyntheticWorld.sample_candidate_sets`` takes the
unchosen items from a reused mask; the reference takes them from a
per-request ``setdiff1d``.  Scores, fitted parameters, candidates and the
generator state afterwards must all match exactly.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import SyntheticWorld, WorldConfig
from repro.rankers import DINRanker
from repro.rankers import din
from repro.testing.reference import (
    din_fit_reference,
    din_score_reference,
    sample_candidate_sets_reference,
)

HISTORY_LENGTH = 6


def bits(array: np.ndarray) -> list[int]:
    as_float = np.ascontiguousarray(array, dtype=np.float64)
    return as_float.view(np.uint64).ravel().tolist()


def random_histories(world, rng):
    """Empty, single-item, shorter-than-H, exactly-H and longer histories."""
    config = world.config
    sizes = (0, 1, HISTORY_LENGTH - 2, HISTORY_LENGTH, 3 * HISTORY_LENGTH)
    return [
        rng.integers(0, config.num_items, size=sizes[rng.integers(len(sizes))])
        for _ in range(config.num_users)
    ]


@pytest.fixture(scope="module")
def world(taobao_world):
    """A private copy: these tests draw from the world's generator."""
    return copy.deepcopy(taobao_world)


@pytest.fixture(scope="module")
def fitted(world):
    histories = random_histories(world, np.random.default_rng(3))
    ranker = DINRanker(epochs=1, history_length=HISTORY_LENGTH, seed=0).fit(
        world.sample_ranker_training(300), world.catalog, world.population, histories
    )
    return ranker, histories


@st.composite
def score_cases(draw):
    chunk = din._SCORE_CHUNK_LISTS
    return dict(
        # One list, a short single chunk, a tail that rides with the chunk
        # before it and a tail scored alone.
        count=draw(st.sampled_from([1, 5, chunk, chunk + 3, chunk + chunk // 2 + 1])),
        length=draw(st.sampled_from([1, 4, 10])),
        # Few distinct users force duplicates within a chunk.
        users=draw(st.sampled_from([1, 3, None])),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


class TestDINMatchesReference:
    @given(score_cases())
    @settings(max_examples=25, deadline=None)
    def test_scores_bitwise(self, world, fitted, case):
        ranker, histories = fitted
        rng = np.random.default_rng(case["seed"])
        pool = (
            rng.choice(world.config.num_users, size=case["users"], replace=False)
            if case["users"]
            else np.arange(world.config.num_users)
        )
        users = rng.choice(pool, size=case["count"])
        candidates = np.stack(
            [
                rng.choice(world.config.num_items, size=case["length"], replace=False)
                for _ in range(case["count"])
            ]
        )
        args = (users, candidates, world.catalog, world.population, histories)
        assert bits(ranker.score(*args)) == bits(din_score_reference(ranker, *args))

    def test_whole_catalog_lists_bitwise(self, world, fitted):
        ranker, histories = fitted
        rng = np.random.default_rng(11)
        num_items = world.config.num_items
        candidates = np.stack([rng.permutation(num_items) for _ in range(3)])
        users = np.array([0, 0, 1])
        args = (users, candidates, world.catalog, world.population, histories)
        assert bits(ranker.score(*args)) == bits(din_score_reference(ranker, *args))

    @pytest.mark.parametrize("interactions", [129, 200])
    def test_fit_bitwise(self, world, interactions):
        """Fitted parameters match, a one-row last batch (129) included."""
        histories = random_histories(world, np.random.default_rng(4))
        rows = world.sample_ranker_training(interactions)
        args = (rows, world.catalog, world.population, histories)
        fitted = DINRanker(epochs=2, history_length=HISTORY_LENGTH, seed=2).fit(*args)
        reference = din_fit_reference(
            DINRanker(epochs=2, history_length=HISTORY_LENGTH, seed=2), *args
        )
        got = list(fitted.network.parameters())
        want = list(reference.network.parameters())
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert bits(a.data) == bits(b.data)


class TestDINProjectsEachHistoryOnce:
    def test_history_rows_are_lists_times_horizon(
        self, world, fitted, monkeypatch
    ):
        """The history projection sees lists x H rows, not lists x L x H."""
        ranker, histories = fitted
        proj = ranker.network.item_proj
        history_rows = []
        target_rows = []

        def spy(x):
            rows = history_rows if x.ndim == 3 else target_rows
            rows.append(int(np.prod(x.shape[:-1])))
            return type(proj).forward(proj, x)

        monkeypatch.setattr(proj, "forward", spy)
        lists, length = 2 * din._SCORE_CHUNK_LISTS + 7, 10
        users, candidates = world.sample_candidate_sets(lists, length)
        ranker.score(users, candidates, world.catalog, world.population, histories)
        assert sum(history_rows) == lists * HISTORY_LENGTH
        assert sum(target_rows) == lists * length


def small_world(num_items: int) -> SyntheticWorld:
    return SyntheticWorld(
        WorldConfig(num_users=6, num_items=num_items, num_topics=2, seed=num_items)
    )


class TestCandidateSetsMatchReference:
    @pytest.mark.parametrize(
        "num_items, list_length, relevant_fraction, pool_size",
        [
            (120, 10, 0.4, 40),
            (12, 12, 0.4, 40),  # list_length == num_items, pool > catalog
            (12, 12, 1.0, 5),  # every slot asks for the top pool
            (30, 7, 0.0, 40),  # no relevant items
            (30, 1, 0.4, 40),
        ],
    )
    def test_candidates_and_stream_match(
        self, num_items, list_length, relevant_fraction, pool_size
    ):
        world = small_world(num_items)
        twin = copy.deepcopy(world)
        kwargs = dict(relevant_fraction=relevant_fraction, pool_size=pool_size)
        for count in (1, 40, 0):
            users, candidates = world.sample_candidate_sets(
                count, list_length, **kwargs
            )
            want_users, want = sample_candidate_sets_reference(
                twin, count, list_length, **kwargs
            )
            assert users.tolist() == want_users.tolist()
            assert candidates.dtype == want.dtype
            assert candidates.tolist() == want.tolist()
        # The generator advanced identically.
        assert world._rng.integers(2**62) == twin._rng.integers(2**62)

    def test_duplicate_users_drawn(self):
        world = small_world(30)
        twin = copy.deepcopy(world)
        users, candidates = world.sample_candidate_sets(200, 8)
        assert len(np.unique(users)) < len(users)
        want_users, want = sample_candidate_sets_reference(twin, 200, 8)
        assert users.tolist() == want_users.tolist()
        assert candidates.tolist() == want.tolist()
