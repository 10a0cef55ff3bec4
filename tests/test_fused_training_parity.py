"""Full-pipeline parity: fused kernels vs composed references on RAPID training.

The per-op oracle (tests/test_testing_oracle.py) proves kernel-level
agreement; this suite proves it *composes* — three epochs of RAPID
training on a tiny taobao world must produce the same loss curve on the
fused kernels and under ``use_fused(False)`` (the composed references of
``repro.testing.reference`` swapped in) to 1e-9, so no fused/composed
divergence can hide behind optimizer noise.  Plus finite-difference gradchecks for
the layers with bespoke backward paths on their edge shapes.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.trainer import TrainConfig
from repro.eval import ExperimentConfig, make_reranker, prepare_bundle
from repro.nn import Dropout, Embedding, LayerNorm, Tensor
from repro.nn.kernels import use_fused
from repro.testing import differential_check


@pytest.fixture(scope="module")
def parity_bundle():
    return prepare_bundle(
        ExperimentConfig(
            dataset="taobao",
            scale="tiny",
            tradeoff=0.5,
            list_length=8,
            num_train_requests=60,
            num_test_requests=20,
            ranker_interactions=500,
            hidden=8,
            train=TrainConfig(epochs=3, batch_size=32),
            seed=0,
        )
    )


def _train_losses(bundle, fused: bool) -> list[float]:
    with use_fused(fused):
        reranker = make_reranker("rapid-pro", bundle)
        reranker.fit(
            bundle.train_requests,
            bundle.world.catalog,
            bundle.world.population,
            bundle.histories,
        )
    return [float(loss) for loss in reranker.training_losses]


@pytest.mark.slow
class TestTrainingParity:
    def test_three_epoch_loss_curves_match(self, parity_bundle):
        fused = _train_losses(parity_bundle, fused=True)
        composed = _train_losses(parity_bundle, fused=False)
        assert len(fused) == len(composed) >= 3
        np.testing.assert_allclose(
            fused,
            composed,
            rtol=0.0,
            atol=1e-9,
            err_msg="fused and composed training trajectories diverged",
        )


class TestGradcheckEdgeShapes:
    """Finite-difference gradchecks for layers with bespoke backwards."""

    def test_embedding_with_repeated_and_padding_ids(self):
        table = Embedding(6, 4, padding_idx=0, rng=np.random.default_rng(0))
        ids = np.array([[1, 1, 0], [5, 1, 0]])  # repeats + padding rows

        def fn(weight):
            # The layer's lookup is a fancy-index gather; repeated ids make
            # the backward accumulate (np.add.at), the classic scatter bug.
            return weight[ids.reshape(-1)].reshape(2, 3, 4).tanh()

        report = differential_check(
            fn,
            (np.array(table.weight.data, copy=True),),
            name="embedding-gather",
            input_names=("weight",),
        )
        assert report.passed, report.format()

    def test_dropout_eval_is_identity_with_clean_gradient(self):
        dropout = Dropout(p=0.7, seed=1).eval()

        def fn(x):
            return dropout(x) * 2.0

        arrays = (np.random.default_rng(2).normal(size=(3, 5)),)
        report = differential_check(fn, arrays, name="dropout-eval",
                                    input_names=("x",))
        assert report.passed, report.format()
        out = dropout(Tensor(arrays[0]))
        assert (out.data == arrays[0]).all()

    @pytest.mark.parametrize(
        "shape",
        [(1, 4), (3, 1, 4), (2, 4), (5, 3, 4)],
        ids=["single-row", "singleton-middle", "plain", "rank3"],
    )
    def test_layernorm_edge_shapes(self, shape):
        norm = LayerNorm(shape[-1])

        def fn(x):
            return norm(x)

        arrays = (np.random.default_rng(3).normal(size=shape),)
        report = differential_check(fn, arrays, name=f"layernorm-{shape}",
                                    input_names=("x",))
        assert report.passed, report.format()

    def test_layernorm_constant_input_gradient_is_finite(self):
        # Zero variance: eps must keep the backward finite.
        norm = LayerNorm(4)
        x = Tensor(np.full((2, 4), 3.0), requires_grad=True)
        norm(x).sum().backward()
        assert np.isfinite(x.grad).all()
