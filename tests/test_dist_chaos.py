"""The dist chaos kill matrix (DESIGN.md §12, TESTING.md).

Headline guarantee: SIGKILLing workers mid-epoch at ``dist.worker.step``
leaves the training run **bit-identical** — same loss curve, same final
parameters — because replacements adopt the parent replica's state and
all per-step randomness is stateless.  Three delivery modes:

- **worker-side kill** (the chaos spec armed inside the worker's first
  incarnation): the worker dies *before* contributing; the replacement
  recomputes that step;
- **parent-side kill** (plan armed in the test process, delivered by the
  parent per gradient message): the contribution is banked first, the
  replacement resumes one step later — and ``plan.fires()`` stays
  auditable against ``resilience``/``dist`` counters;
- **degradation** (budget exhausted): the run *completes* on the
  survivors with a ``dist.degraded`` event — arithmetic changes, and
  that is announced, never silent.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import RapidConfig, TrainConfig, make_rapid_variant
from repro.data import RankingRequest
from repro.dist import DistTrainConfig, RestartPolicy, train_dist
from repro.obs import MemorySink, RunLogger, get_registry, set_run_logger
from repro.resilience import FaultSpec, chaos
from repro.testing.reference import train_dist_reference

pytestmark = [pytest.mark.dist, pytest.mark.slow]


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


def _train(training_setup, dist):
    world, histories, requests, rapid_config = training_setup
    model = make_rapid_variant("rapid-det", rapid_config)
    result = train_dist(
        model,
        requests,
        world.catalog,
        world.population,
        histories,
        config=TrainConfig(epochs=2, batch_size=4, seed=0),
        dist=dist,
    )
    return model, result


@pytest.fixture(scope="module")
def baseline(training_setup):
    """The uninterrupted multi-worker run every chaos run must reproduce."""
    model, result = _train(
        training_setup, DistTrainConfig(world_size=2)
    )
    return [p.data.copy() for p in model.parameters()], result.losses


def _params_match(reference, model, atol=0.0):
    return all(
        np.allclose(ref, p.data, rtol=0.0, atol=atol)
        for ref, p in zip(reference, model.parameters())
    )


class TestKillRejoin:
    def test_two_workers_sigkilled_mid_epoch_rejoin_bit_identically(
        self, training_setup, baseline
    ):
        """The acceptance scenario: both ranks die mid-epoch, curve unchanged."""
        reference_params, reference_losses = baseline
        worker_chaos = (
            # rank 0 dies at its 2nd step (mid-epoch 0), rank 1 at its 3rd
            # (first step of epoch 1) — both before contributing
            (0, FaultSpec("dist.worker.step", kind="kill", after=1, times=1)),
            (1, FaultSpec("dist.worker.step", kind="kill", after=2, times=1)),
        )
        model, result = _train(
            training_setup,
            DistTrainConfig(world_size=2, worker_chaos=worker_chaos),
        )
        assert result.restarts == 2
        assert result.degraded == []
        assert result.losses == reference_losses
        assert _params_match(reference_params, model)  # bitwise

    def test_chaos_curve_within_1e9_of_single_process(
        self, training_setup, baseline
    ):
        """The killed run also sits on the single-process reference curve."""
        _, reference_losses = baseline
        world, histories, requests, rapid_config = training_setup
        single_model = make_rapid_variant("rapid-det", rapid_config)
        single_losses = train_dist_reference(
            single_model,
            requests,
            world.catalog,
            world.population,
            histories,
            TrainConfig(epochs=2, batch_size=4, seed=0),
            2,
        )
        assert np.allclose(single_losses, reference_losses, rtol=0.0, atol=1e-9)
        worker_chaos = (
            (0, FaultSpec("dist.worker.step", kind="kill", after=1, times=1)),
        )
        model, result = _train(
            training_setup,
            DistTrainConfig(world_size=2, worker_chaos=worker_chaos),
        )
        assert np.allclose(result.losses, single_losses, rtol=0.0, atol=1e-9)
        assert _params_match(
            [p.data for p in single_model.parameters()], model, atol=1e-9
        )


class TestAccounting:
    def test_parent_side_kills_account_exactly(self, training_setup, baseline):
        """plan.fires() == dist.worker_restarts delta == result.restarts."""
        reference_params, reference_losses = baseline
        restarts_counter = get_registry().counter("dist.worker_restarts")
        before = restarts_counter.value
        with chaos(
            FaultSpec("dist.worker.step", kind="kill", after=1, times=2)
        ) as plan:
            model, result = _train(
                training_setup, DistTrainConfig(world_size=2)
            )
            fires = plan.fires("dist.worker.step")
        assert fires == 2
        assert result.restarts == fires
        assert restarts_counter.value - before == fires
        # contribution was banked before each kill: arithmetic untouched
        assert result.losses == reference_losses
        assert _params_match(reference_params, model)


class TestDegradation:
    def test_exhausted_budget_completes_on_survivors(self, training_setup):
        sink = MemorySink()
        previous = set_run_logger(RunLogger(sink))
        try:
            worker_chaos = (
                (1, FaultSpec("dist.worker.step", kind="kill", after=1, times=1)),
            )
            model, result = _train(
                training_setup,
                DistTrainConfig(
                    world_size=2,
                    worker_chaos=worker_chaos,
                    restart=RestartPolicy(max_restarts=0),
                ),
            )
        finally:
            set_run_logger(previous)
        assert len(result.losses) == 2  # the run completed
        assert result.degraded == [1]
        assert result.restarts == 0
        assert get_registry().gauge("dist.live_workers").value == 1.0
        degraded_events = [
            r for r in sink.records if r["event"] == "dist.degraded"
        ]
        assert len(degraded_events) == 1
        assert degraded_events[0]["rank"] == 1
        done = [r for r in sink.records if r["event"] == "dist.done"]
        assert done and done[0]["degraded"] == [1]

    def test_fleet_spans_cover_workers_and_parent(self, training_setup):
        _, result = _train(
            training_setup, DistTrainConfig(world_size=2)
        )
        names = {record["name"] for record in result.span_records}
        assert "dist.train" in names
        assert {"dist.worker:0", "dist.worker:1"} <= names
