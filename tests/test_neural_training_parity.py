"""The list-wise neural baselines train on RAPID's loop, ``train_rapid``.

Parity: each baseline's ``fit`` must give bitwise the losses and parameters
of :func:`repro.testing.reference.fit_neural_reference`, the Adam loop the
baselines used to carry themselves.  The six models cover every loss kind a
baseline names: listwise (DLCM, PRM, SetRank), pointwise (SRGA), pairwise
(DESA) and stepwise (Seq2Slate).

Coverage: the shared loop gives the baselines RAPID's fault points and
``train.*`` metrics.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from repro.eval import make_reranker
from repro.obs import get_registry
from repro.resilience import FaultSpec, InjectedFault, chaos
from repro.rerank import DLCMReranker
from repro.testing.reference import fit_neural_reference

BASELINES = ["dlcm", "prm", "setrank", "srga", "desa", "seq2slate"]


def _fit_args(bundle):
    world = bundle.world
    return bundle.train_requests, world.catalog, world.population, bundle.histories


def _make(name, bundle):
    reranker = make_reranker(name, bundle)
    # Gradient norms here stay under the default clip of 5.0; this clip
    # binds on the first batch of every model, so the clip is compared too.
    reranker.train_config = dataclasses.replace(reranker.train_config, grad_clip=0.12)
    return reranker


@pytest.mark.parametrize("name", BASELINES)
def test_fit_matches_reference_loop_bitwise(tiny_bundle, name):
    model = _make(name, tiny_bundle).fit(*_fit_args(tiny_bundle))
    reference = fit_neural_reference(_make(name, tiny_bundle), *_fit_args(tiny_bundle))
    assert len(model.training_losses) == tiny_bundle.config.train.epochs
    assert model.training_losses == reference.training_losses
    params = list(model.network.parameters())
    reference_params = list(reference.network.parameters())
    assert len(params) == len(reference_params)
    for param, reference_param in zip(params, reference_params):
        assert np.array_equal(param.data, reference_param.data)


def test_fault_at_train_batch_raises_out_of_baseline_fit(tiny_bundle):
    model = DLCMReranker(hidden=4, epochs=1, batch_size=32)
    with chaos(FaultSpec("train.batch", after=1, times=1)) as plan:
        with pytest.raises(InjectedFault):
            model.fit(*_fit_args(tiny_bundle))
    assert plan.fires("train.batch") == 1


def test_baseline_fit_feeds_train_metrics(tiny_bundle):
    epochs, batch_size = 2, 32
    num_lists = len(tiny_bundle.train_requests)
    model = DLCMReranker(hidden=4, epochs=epochs, batch_size=batch_size)
    registry = get_registry()
    batches = registry.histogram("train.batch_ms")
    lists = registry.counter("train.lists")
    count_before, lists_before = batches.count, lists.value
    model.fit(*_fit_args(tiny_bundle))
    assert batches.count - count_before == epochs * math.ceil(num_lists / batch_size)
    assert lists.value - lists_before == num_lists * epochs
