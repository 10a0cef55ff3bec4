"""Offline set-up against its per-pair references.

``DINRanker`` gathers one history per list from a per-user id table,
projects it once for the list's L candidates and applies the attention's
first layer block by block; ``repro.testing.reference`` keeps the
per-(list, candidate) loop and the concatenated-input forward it replaced.
The block form sums in another order, so scores and fitted parameters
match the reference within ``ATOL`` (measured: 3.3e-15 on scores, 1.7e-16
on parameters) and every list ranks its candidates in the same order.
``SyntheticWorld.sample_candidate_sets`` takes the unchosen items from a
reused mask; the reference takes them from a per-request ``setdiff1d``.
Candidates and the generator state afterwards must match exactly, as must
the clicks of ``DependentClickModel.simulate`` against one session per
request.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.click import DependentClickModel
from repro.data import SyntheticWorld, WorldConfig
from repro.eval import prepare_bundle
from repro.nn import Tensor
from repro.rankers import DINRanker
from repro.rankers import din
from repro.testing.oracle import finite_difference_grad
from repro.testing.reference import (
    din_fit_reference,
    din_forward_reference,
    din_score_reference,
    sample_candidate_sets_reference,
    simulate_clicks_reference,
)

HISTORY_LENGTH = 6
# Budget against the concatenated-input reference forward.
ATOL = 1e-12


def assert_scores_match(got: np.ndarray, want: np.ndarray) -> None:
    """Within ``ATOL``, and each list in the reference's descending order."""
    np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)
    order = np.argsort(-got, axis=1, kind="stable")
    want_order = np.argsort(-want, axis=1, kind="stable")
    assert order.tolist() == want_order.tolist()


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
        """Scores within ``ATOL``; each list's order exactly."""
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
        assert_scores_match(ranker.score(*args), din_score_reference(ranker, *args))

    def test_whole_catalog_lists_bitwise(self, world, fitted):
        """Scores within ``ATOL``; each list's order exactly."""
        ranker, histories = fitted
        rng = np.random.default_rng(11)
        num_items = world.config.num_items
        candidates = np.stack([rng.permutation(num_items) for _ in range(3)])
        users = np.array([0, 0, 1])
        args = (users, candidates, world.catalog, world.population, histories)
        assert_scores_match(ranker.score(*args), din_score_reference(ranker, *args))

    @pytest.mark.parametrize("interactions", [129, 200])
    def test_fit_bitwise(self, world, interactions):
        """Fitted parameters match within ``ATOL``, a one-row last batch
        (129) included."""
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
            np.testing.assert_allclose(a.data, b.data, rtol=0, atol=ATOL)


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


class TestDINAttentionBlocks:
    def test_no_pair_input_is_concatenated(self, world, fitted, monkeypatch):
        """Neither score nor fit concatenates a (..., 4 * hidden) attention
        input; the first layer's weight is applied block by block."""
        ranker, histories = fitted
        width = 4 * ranker.hidden
        widths = []
        concatenate = Tensor.concatenate

        def spy(tensors, axis=0):
            tensors = list(tensors)
            widths.extend(np.shape(t)[-1] for t in tensors)
            return concatenate(tensors, axis=axis)

        monkeypatch.setattr(Tensor, "concatenate", staticmethod(spy))
        users, candidates = world.sample_candidate_sets(5, 10)
        ranker.score(users, candidates, world.catalog, world.population, histories)
        DINRanker(epochs=1, history_length=HISTORY_LENGTH, seed=1).fit(
            world.sample_ranker_training(40), world.catalog, world.population,
            histories,
        )
        assert widths, "the spy saw no concatenation"
        assert width not in widths

    def test_gradients_match_finite_differences(self):
        """Every parameter, the four slices of the first attention layer
        included, gets the gradient of the block-form forward."""
        rng = np.random.default_rng(0)
        lists, length, horizon = 2, 3, 4
        network = din._DINNetwork(3, 4, 2, 3, np.random.default_rng(1))
        inputs = (
            rng.normal(size=(lists * length, 3)),
            rng.normal(size=(lists * length, 4)),
            rng.uniform(size=(lists * length, 2)),
            rng.normal(size=(lists, horizon, 4)),
            np.array([[True, True, True, False], [True, False, False, False]]),
        )
        weights = rng.normal(size=lists * length)

        def loss():
            return (network(*inputs) * Tensor(weights)).sum()

        network.zero_grad()
        loss().backward()
        for name, param in network.named_parameters():

            def at(value, param=param):
                saved = param.data
                param.data = value
                try:
                    return loss().item()
                finally:
                    param.data = saved

            numeric = finite_difference_grad(at, [param.data], 0)
            np.testing.assert_allclose(
                param.grad, numeric, rtol=1e-6, atol=1e-8, err_msg=name
            )

    def test_forward_matches_concatenated_reference(self):
        """Logits and gradients of one batch against the reference forward."""
        rng = np.random.default_rng(2)
        lists, length, horizon = 3, 5, 6
        network = din._DINNetwork(8, 8, 5, 16, np.random.default_rng(3))
        mask = rng.random((lists, horizon)) < 0.7
        inputs = (
            rng.normal(size=(lists * length, 8)),
            rng.normal(size=(lists * length, 8)),
            rng.uniform(size=(lists * length, 5)),
            rng.normal(size=(lists, horizon, 8)),
            mask,
        )
        expanded = (
            *inputs[:3],
            np.repeat(inputs[3], length, axis=0),
            np.repeat(mask, length, axis=0),
        )
        grads = []
        for forward, args in (
            (network, inputs),
            (lambda *a: din_forward_reference(network, *a), expanded),
        ):
            network.zero_grad()
            logits = forward(*args)
            logits.sum().backward()
            grads.append([p.grad.copy() for p in network.parameters()])
            grads[-1].append(logits.data)
        for got, want in zip(*grads):
            np.testing.assert_allclose(got, want, rtol=0, atol=ATOL)


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


class TestClicksMatchReference:
    @pytest.mark.parametrize("full_information", [True, False])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_batched_clicks_and_stream_match(self, world, seed, full_information):
        model = DependentClickModel(world, tradeoff=0.5)
        rng = np.random.default_rng(seed)
        users = rng.integers(world.config.num_users, size=200)
        items = np.stack(
            [rng.choice(world.config.num_items, size=10, replace=False) for _ in users]
        )
        got_rng = np.random.default_rng(seed + 7)
        want_rng = np.random.default_rng(seed + 7)
        got = model.simulate(users, items, got_rng, full_information=full_information)
        want = simulate_clicks_reference(
            model, users, items, want_rng, full_information=full_information
        )
        assert got.shape == (200, 10)
        assert got.tolist() == want.tolist()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_single_request_is_one_row(self, world):
        model = DependentClickModel(world, tradeoff=0.5)
        items = np.arange(10)
        one = model.simulate(4, items, np.random.default_rng(0))
        rows = model.simulate(np.array([4]), items[None], np.random.default_rng(0))
        assert one.shape == (10,)
        assert one.tolist() == rows[0].tolist()

    def test_bundle_clicks_match_per_request_sessions(self, tiny_config):
        """prepare_bundle's clicks are the per-request sessions' clicks."""
        bundle = prepare_bundle(tiny_config)
        rng = np.random.default_rng(tiny_config.seed + 7)
        for requests, full in (
            (bundle.train_requests, True),
            (bundle.test_requests, tiny_config.eval_mode == "logged"),
        ):
            users = np.array([r.user_id for r in requests])
            items = np.stack([r.items for r in requests])
            want = simulate_clicks_reference(
                bundle.click_model, users, items, rng, full_information=full
            )
            assert np.stack([r.clicks for r in requests]).tolist() == want.tolist()
