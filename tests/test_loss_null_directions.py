"""Parameters the softmax-type losses cannot see.

A listwise softmax or pairwise loss is unchanged when every score of a list
moves by the same amount, and a softmax over keys is unchanged when every
key logit of a query moves by the same amount.  So the output bias of
DLCM, PRM, SetRank and DESA, the attention key biases and Seq2Slate's
pointer key bias have a true gradient of zero.  What backward returns for
them is rounding noise, which Adam scales to steps of about ``lr``: any
last-bit change upstream moves these models' scores by a constant per
model (a per-row one for Seq2Slate), and their golden scores with it.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import build_batch
from repro.eval import make_reranker

# Model -> name suffixes of its parameters in a null direction of its loss.
NULL_DIRECTIONS = {
    "dlcm": ("direct.bias",),
    "prm": ("head.layer_1.bias", "k_proj.bias"),
    "setrank": ("head.layer_1.bias", "k_proj.bias"),
    "desa": ("fusion.layer_1.bias", "k_proj.bias"),
    "seq2slate": ("pointer_key.bias",),
}


@pytest.mark.parametrize("name", sorted(NULL_DIRECTIONS))
def test_loss_gradient_vanishes_on_null_directions(tiny_bundle, name):
    reranker = make_reranker(name, tiny_bundle)
    world = tiny_bundle.world
    network = reranker.build_network(world.catalog, world.population)
    batch = build_batch(
        tiny_bundle.train_requests[:32],
        world.catalog,
        world.population,
        tiny_bundle.histories,
    )
    network.zero_grad()
    reranker._loss(network, batch, np.random.default_rng(0)).backward()
    grads = {key: np.abs(p.grad).max() for key, p in network.named_parameters()}
    largest = max(grads.values())
    assert largest > 0
    for suffix in NULL_DIRECTIONS[name]:
        matched = [key for key in grads if key.endswith(suffix)]
        assert matched, f"{name} has no parameter named *{suffix}"
        for key in matched:
            assert grads[key] < 1e-10 * largest, (key, grads[key], largest)
