"""Whole-batch ``build_batch`` against the per-row reference, field by field.

``repro.testing.reference.build_batch_reference`` fills a batch one
request at a time; ``repro.data.build_batch`` fills it with whole-batch
gathers.  Every :class:`RerankBatch` field must match bit for bit (same
dtype, shape and bytes) over ragged lists, empty and short histories,
censored and missing clicks, and bids.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import RankingRequest, build_batch, split_history_by_topic
from repro.testing.reference import (
    build_batch_reference,
    split_history_by_topic_reference,
)


def assert_batches_bitwise_equal(batch, reference):
    for field in dataclasses.fields(reference):
        got = getattr(batch, field.name)
        want = getattr(reference, field.name)
        if want is None:
            assert got is None, field.name
            continue
        assert got.dtype == want.dtype, field.name
        assert got.shape == want.shape, field.name
        assert np.ascontiguousarray(got).tobytes() == want.tobytes(), field.name


def random_requests(world, rng, batch_size, ragged):
    config = world.config
    requests = []
    for _ in range(batch_size):
        length = int(rng.integers(1, 13)) if ragged else 12
        items = rng.choice(config.num_items, size=length, replace=False)
        kind = rng.integers(3)
        clicks = (
            None if kind == 0 else (rng.random(length) < 0.3).astype(np.float64)
        )
        requests.append(
            RankingRequest(
                int(rng.integers(config.num_users)),
                items,
                rng.normal(size=length),
                clicks=clicks,
                fully_observed=bool(kind == 2),
            )
        )
    return requests


def random_histories(world, rng, flat_history_length):
    """Full, empty, shorter-than-H and single-entry histories."""
    config = world.config
    histories = []
    for _ in range(config.num_users):
        size = (
            config.history_length,
            0,
            int(rng.integers(1, max(flat_history_length, 2))),
            1,
        )[rng.integers(4)]
        histories.append(rng.integers(0, config.num_items, size=size))
    return histories


@st.composite
def batch_cases(draw):
    return dict(
        world=draw(st.sampled_from(["taobao", "appstore", "movielens"])),
        batch_size=draw(st.sampled_from([1, 16, 256])),
        ragged=draw(st.booleans()),
        topic_history_length=draw(st.integers(1, 8)),
        flat_history_length=draw(st.integers(1, 40)),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


class TestBuildBatchMatchesReference:
    @given(batch_cases())
    @settings(max_examples=40, deadline=None)
    def test_every_field_bitwise(
        self, taobao_world, appstore_world, movielens_world, case
    ):
        world = {
            "taobao": taobao_world,
            "appstore": appstore_world,
            "movielens": movielens_world,
        }[case["world"]]
        rng = np.random.default_rng(case["seed"])
        histories = random_histories(world, rng, case["flat_history_length"])
        requests = random_requests(world, rng, case["batch_size"], case["ragged"])
        lengths = dict(
            topic_history_length=case["topic_history_length"],
            flat_history_length=case["flat_history_length"],
        )
        args = (requests, world.catalog, world.population, histories)
        assert_batches_bitwise_equal(
            build_batch(*args, **lengths), build_batch_reference(*args, **lengths)
        )

    def test_bids_and_censoring_are_exercised(self, appstore_world):
        rng = np.random.default_rng(0)
        histories = random_histories(appstore_world, rng, 20)
        requests = random_requests(appstore_world, rng, 64, ragged=True)
        args = (requests, appstore_world.catalog, appstore_world.population, histories)
        batch = build_batch(*args)
        assert batch.bids is not None
        assert not batch.mask.all()
        assert (batch.observed != batch.mask).any()
        assert not batch.history_mask.all() and batch.history_mask.any()
        assert_batches_bitwise_equal(batch, build_batch_reference(*args))


@st.composite
def history_cases(draw):
    num_items = draw(st.integers(5, 40))
    num_topics = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(["random", "one-hot", "uniform"]))
    if kind == "random":
        coverage = rng.random((num_items, num_topics))
    elif kind == "one-hot":
        coverage = np.eye(num_topics)[rng.integers(num_topics, size=num_items)]
    else:  # every topic ties for the largest coverage
        coverage = np.full((num_items, num_topics), 0.2)
    history = rng.integers(0, num_items, size=draw(st.integers(0, 30)))
    return dict(
        history=history,
        coverage=coverage,
        num_topics=draw(st.integers(1, num_topics)),
        max_length=draw(st.integers(1, 8)),
        membership_threshold=draw(st.sampled_from([0.0, 0.25, 0.5, 1.1])),
    )


class TestSplitHistoryMatchesReference:
    @given(history_cases())
    @settings(max_examples=100, deadline=None)
    def test_ids_and_mask_equal(self, case):
        ids, mask = split_history_by_topic(**case)
        want_ids, want_mask = split_history_by_topic_reference(**case)
        assert np.array_equal(ids, want_ids)
        assert np.array_equal(mask, want_mask)
