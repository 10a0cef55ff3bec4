"""Data-parallel trainer tests: sharding, averaging math, reference parity.

The expensive multi-process runs live in ``test_dist_chaos.py`` (the
kill matrix); this file pins the deterministic building blocks plus the
headline guarantees: the process fleet equals the single-process
reference bit for bit, and it resumes from per-rank checkpoints bit for
bit.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.core import RapidConfig, TrainConfig, make_rapid_variant
from repro.core.trainer import apply_step, backward_batch
from repro.data import RankingRequest
from repro.data.batching import build_batch
from repro.dist import DistError, DistTrainConfig, train_dist
from repro.dist.train import average_contributions, shard_requests
from repro.resilience import FaultSpec
from repro.resilience.checkpoint import CheckpointConfig, CheckpointManager
from repro.testing.reference import train_dist_reference

pytestmark = pytest.mark.dist


@pytest.fixture(scope="module")
def training_setup(taobao_world):
    world = taobao_world
    histories = world.sample_histories()
    rng = np.random.default_rng(0)
    requests = []
    for _ in range(16):
        user = int(rng.integers(world.config.num_users))
        items = rng.choice(world.config.num_items, size=10, replace=False)
        clicks = (rng.random(10) < 0.3).astype(float)
        requests.append(
            RankingRequest(user, items, rng.normal(size=10), clicks=clicks)
        )
    config = RapidConfig(
        user_dim=world.population.feature_dim,
        item_dim=world.catalog.feature_dim,
        num_topics=world.catalog.num_topics,
        hidden=4,
        seed=0,
    )
    return world, histories, requests, config


def _train(training_setup, dist, epochs=2):
    world, histories, requests, rapid_config = training_setup
    model = make_rapid_variant("rapid-det", rapid_config)
    result = train_dist(
        model,
        requests,
        world.catalog,
        world.population,
        histories,
        config=TrainConfig(epochs=epochs, batch_size=4, seed=0),
        dist=dist,
    )
    return model, result


def _reference(training_setup, world_size, epochs=2):
    world, histories, requests, rapid_config = training_setup
    model = make_rapid_variant("rapid-det", rapid_config)
    losses = train_dist_reference(
        model,
        requests,
        world.catalog,
        world.population,
        histories,
        TrainConfig(epochs=epochs, batch_size=4, seed=0),
        world_size,
    )
    return model, losses


def _params_equal(a, b) -> bool:
    return all(
        np.array_equal(pa.data, pb.data)
        for pa, pb in zip(a.parameters(), b.parameters())
    )


class TestShardRequests:
    def test_round_robin(self):
        requests = list(range(7))  # ids stand in for requests
        shards = shard_requests(requests, 3)
        assert shards == [[0, 3, 6], [1, 4], [2, 5]]

    def test_too_few_requests_is_classified(self):
        with pytest.raises(DistError):
            shard_requests([object()], 2)


class TestAverageContributions:
    def test_count_weighted_average(self):
        g0 = [np.array([1.0, 2.0]), np.array([[1.0]])]
        g1 = [np.array([3.0, 4.0]), np.array([[5.0]])]
        averaged, loss = average_contributions(
            [(0, g0, 0.5, 3), (1, g1, 1.0, 1)]
        )
        assert np.allclose(averaged[0], (g0[0] * 3 + g1[0] * 1) / 4)
        assert np.allclose(averaged[1], (g0[1] * 3 + g1[1] * 1) / 4)
        assert loss == pytest.approx((0.5 * 3 + 1.0 * 1) / 4)

    def test_single_contribution_is_identity(self):
        grads = [np.array([1.5, -2.0])]
        averaged, loss = average_contributions([(0, grads, 0.25, 8)])
        assert np.array_equal(averaged[0], grads[0])
        assert loss == 0.25

    def test_matches_concatenated_batch_gradient(self, training_setup):
        """sum(grad_r * count_r) / sum(count_r) == grad of the joint batch.

        This is the identity the whole replication scheme rests on: the
        pointwise BCE divides by the batch's weight sum, so count-weighted
        averaging of per-shard gradients reproduces the gradient of the
        concatenated batch (up to float reassociation).
        """
        world, histories, requests, rapid_config = training_setup
        tc = TrainConfig(batch_size=4, seed=0)
        kwargs = dict(
            topic_history_length=tc.topic_history_length,
            flat_history_length=tc.flat_history_length,
        )
        halves = [requests[:4], requests[4:8]]
        contribs = []
        model = make_rapid_variant("rapid-det", rapid_config)
        optimizer = nn.Adam(model.parameters(), lr=tc.lr)
        for rank, chunk in enumerate(halves):
            batch = build_batch(
                chunk, world.catalog, world.population, histories, **kwargs
            )
            loss, count = backward_batch(
                model, optimizer, batch, np.random.default_rng(7)
            )
            grads = [p.grad.copy() for p in model.parameters()]
            contribs.append((rank, grads, float(loss.item()), count))
        averaged, _ = average_contributions(contribs)
        joint = build_batch(
            requests[:8], world.catalog, world.population, histories, **kwargs
        )
        backward_batch(model, optimizer, joint, np.random.default_rng(7))
        for avg, param in zip(averaged, model.parameters()):
            assert np.allclose(avg, param.grad, rtol=1e-9, atol=1e-12)


class TestApplyStep:
    def test_installed_grads_must_align(self, training_setup):
        _, _, _, rapid_config = training_setup
        model = make_rapid_variant("rapid-det", rapid_config)
        optimizer = nn.Adam(model.parameters(), lr=0.01)
        with pytest.raises(ValueError):
            apply_step(model, optimizer, 5.0, grads=[np.zeros(3)])


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            DistTrainConfig(world_size=0)
        with pytest.raises(ValueError):
            DistTrainConfig(
                world_size=2,
                worker_chaos=((5, FaultSpec("dist.worker.step", kind="kill")),),
            )


class TestBackendParity:
    @pytest.mark.slow
    def test_process_equals_inline_bitwise(self, training_setup):
        reference_model, reference_losses = _reference(training_setup, 2)
        process_model, process = _train(
            training_setup, DistTrainConfig(world_size=2)
        )
        assert reference_losses == process.losses
        assert _params_equal(reference_model, process_model)
        assert process.restarts == 0 and process.degraded == []

    def test_inline_world_sizes_differ_but_converge(self, training_setup):
        # different W = different effective batch composition: not equal,
        # but both are real training runs on the same data
        _, w1 = _reference(training_setup, 1)
        _, w2 = _reference(training_setup, 2)
        assert len(w1) == len(w2) == 2
        assert w1[-1] < w1[0]
        assert w2[-1] < w2[0]


class TestCheckpointResume:
    def test_interrupted_run_resumes_bit_identically(self, training_setup, tmp_path):
        def dist():
            return DistTrainConfig(
                world_size=2,
                checkpoint=CheckpointConfig(directory=tmp_path, fsync=False),
            )

        full_model, full = _train(
            training_setup, DistTrainConfig(world_size=2), epochs=4
        )
        _train(training_setup, dist(), epochs=2)  # "killed" after epoch 2
        resumed_model, resumed = _train(training_setup, dist(), epochs=4)
        assert resumed.losses == full.losses
        assert _params_equal(full_model, resumed_model)
        # per-rank directories with per-worker identity in `extra`
        for rank in range(2):
            manager = CheckpointManager(
                CheckpointConfig(directory=tmp_path / f"rank{rank:03d}")
            )
            _, checkpoint = manager.latest()
            assert int(checkpoint.extra["rank"]) == rank
            assert int(checkpoint.extra["world_size"]) == 2
