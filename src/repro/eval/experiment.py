"""End-to-end experiment pipeline (the paper's semi-synthetic protocol).

Pipeline per :class:`~repro.eval.protocol.ExperimentConfig`:

1. build the synthetic world for the dataset (Taobao / MovieLens / App
   Store) and sample user behavior histories;
2. train the configured initial ranker on its own interaction split;
3. sample candidate sets, rank them with the initial ranker to obtain the
   initial lists ``R``, and simulate clicks with the DCM (``lambda`` blend
   of relevance and personalized diversity) — or, for the App Store, with
   its hidden logged-click model;
4. fit each re-ranker on the click-labeled training requests;
5. evaluate on the test requests: click@k, ndcg@k, div@k, satis@k (public)
   or rev@k (App Store).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..click.dcm import DependentClickModel, expected_clicks_per_position
from ..core import RapidConfig, RapidReranker
from ..data import (
    RankingRequest,
    SyntheticWorld,
    build_batch,
    make_appstore_world,
    make_movielens_world,
    make_taobao_world,
)
from ..metrics import clicks_at_k, div_at_k, ndcg_at_k, revenue_at_k, satis_at_k
from ..obs import get_registry, get_run_logger, trace
from ..rankers import DINRanker, InitialRanker, LambdaMARTRanker, SVMRankRanker
from ..rerank import (
    AdaptiveMMRReranker,
    DESAReranker,
    DLCMReranker,
    DPPReranker,
    MMRReranker,
    PDGANReranker,
    PRMReranker,
    Reranker,
    SRGAReranker,
    SSDReranker,
    SetRankReranker,
    identity_permutation,
)
from ..resilience.chaos import faultpoint
from ..utils.rng import make_rng
from .protocol import ExperimentConfig

__all__ = [
    "ExperimentBundle",
    "EvaluationResult",
    "prepare_bundle",
    "make_reranker",
    "evaluate_reranker",
    "run_experiment",
]

_WORLD_BUILDERS = {
    "taobao": make_taobao_world,
    "movielens": make_movielens_world,
    "appstore": make_appstore_world,
}

_RANKER_BUILDERS = {
    "din": lambda seed: DINRanker(seed=seed),
    "svmrank": lambda seed: SVMRankRanker(seed=seed),
    "lambdamart": lambda seed: LambdaMARTRanker(num_trees=15),
}


@dataclass
class ExperimentBundle:
    """Everything produced by the data/simulation stages of the pipeline."""

    config: ExperimentConfig
    world: SyntheticWorld
    histories: list[np.ndarray]
    initial_ranker: InitialRanker
    click_model: DependentClickModel
    train_requests: list[RankingRequest]
    test_requests: list[RankingRequest]


@dataclass
class EvaluationResult:
    """Aggregate metrics plus per-request utility samples for t-tests."""

    metrics: dict[str, float]
    per_request_clicks: dict[int, np.ndarray] = field(default_factory=dict)

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


@trace("eval.prepare_bundle")
def prepare_bundle(config: ExperimentConfig) -> ExperimentBundle:
    """Run stages 1-3: world, initial ranker, click-labeled requests."""
    get_run_logger().log("experiment.prepare", **config.tags())
    with trace("eval.build_world"):
        world = _WORLD_BUILDERS[config.dataset](
            scale=config.scale, seed=config.seed
        )
        histories = world.sample_histories()
    ranker = _RANKER_BUILDERS[config.initial_ranker](config.seed)
    interactions = world.sample_ranker_training(config.ranker_interactions)
    with trace("eval.fit_initial_ranker"):
        ranker.fit(
            interactions, world.catalog, world.population, histories=histories
        )

    # The App Store's logged clicks always come from its production-like
    # model (a fixed-lambda DCM here); the public datasets use the
    # configurable lambda of Table II.
    tradeoff = 0.5 if config.dataset == "appstore" else config.tradeoff
    click_model = DependentClickModel(world, tradeoff=tradeoff)
    rng = make_rng(config.seed + 7)

    def build_requests(count: int, full_information: bool) -> list[RankingRequest]:
        users, candidates = world.sample_candidate_sets(count, config.list_length)
        items, scores = ranker.rank(
            users, candidates, world.catalog, world.population, histories=histories
        )
        clicks = click_model.simulate(
            users, items, rng, full_information=full_information
        )
        return [
            RankingRequest(
                user_id=int(user),
                items=row_items,
                initial_scores=row_scores,
                clicks=row_clicks,
                fully_observed=full_information,
            )
            for user, row_items, row_scores, row_clicks in zip(
                users, items, scores, clicks
            )
        ]

    # Training labels are simulator-logged attraction outcomes for every
    # position (no examination censoring; see DESIGN.md).  Test-request
    # clicks are only consumed by `logged` replay evaluation; replaying
    # *censored* sessions would systematically reward the logging policy
    # (the initial ranking), so logged mode also replays per-impression
    # attraction outcomes.
    full_test = config.eval_mode == "logged"
    return ExperimentBundle(
        config=config,
        world=world,
        histories=histories,
        initial_ranker=ranker,
        click_model=click_model,
        train_requests=build_requests(config.num_train_requests, True),
        test_requests=build_requests(config.num_test_requests, full_test),
    )


def make_reranker(name: str, bundle: ExperimentBundle) -> Reranker | None:
    """Factory for every model of the paper's comparison (None = Init)."""
    config = bundle.config
    catalog = bundle.world.catalog
    population = bundle.world.population
    key = name.lower()
    if key == "init":
        return None
    neural_kwargs = dict(
        hidden=config.hidden,
        epochs=config.train.epochs,
        batch_size=config.train.batch_size,
        lr=config.train.lr,
        seed=config.seed,
    )
    if key == "dlcm":
        return DLCMReranker(**neural_kwargs)
    if key == "prm":
        return PRMReranker(**neural_kwargs)
    if key == "setrank":
        return SetRankReranker(**neural_kwargs)
    if key == "srga":
        return SRGAReranker(**neural_kwargs)
    if key == "desa":
        return DESAReranker(**neural_kwargs)
    if key == "seq2slate":
        from ..rerank import Seq2SlateReranker

        return Seq2SlateReranker(**neural_kwargs)
    if key == "mmr":
        return MMRReranker()
    if key == "dpp":
        return DPPReranker()
    if key == "ssd":
        return SSDReranker()
    if key == "adpmmr":
        return AdaptiveMMRReranker(catalog, bundle.histories)
    if key == "pdgan":
        return PDGANReranker(
            hidden=config.hidden, epochs=max(1, config.train.epochs // 2),
            seed=config.seed,
        )
    if key.startswith("rapid"):
        inference = "sort"
        if key.endswith("-greedy"):
            key = key[: -len("-greedy")]
            inference = "greedy"
        rapid_config = RapidConfig(
            user_dim=population.feature_dim,
            item_dim=catalog.feature_dim,
            num_topics=catalog.num_topics,
            hidden=config.hidden,
            seed=config.seed,
        )
        return RapidReranker(
            rapid_config,
            variant=key,
            train_config=config.train,
            inference=inference,
        )
    raise ValueError(f"unknown model {name!r}")


def evaluate_reranker(
    reranker: Reranker | None,
    bundle: ExperimentBundle,
    ks: Sequence[int] | None = None,
    eval_batch_size: int = 256,
) -> EvaluationResult:
    """Evaluate a re-ranker (or the initial ranking when ``None``).

    ``expected`` mode scores each re-ranked list with the DCM's closed-form
    expected clicks / satisfaction (deterministic, unbiased); ``logged``
    mode replays the clicks logged on the initial list (the App Store
    protocol) — a clicked item counts wherever the re-ranker places it.
    The pass is scored as one (N, L) array of re-ranked lists with a list
    mask: one ``attraction_probabilities`` call for all N lists, and one
    call per metric and k.

    Telemetry: re-ranking runs inside an ``eval.rerank`` span (with a
    child span per batch pass — ``rerank()`` itself also feeds the
    ``rerank.latency_ms`` histogram), metric computation inside an
    ``eval.metrics`` span, and every aggregate metric is published as an
    ``eval.<metric>{model=...}`` gauge plus a per-list latency gauge
    ``eval.rerank_ms_per_list{model=...}``.  Each batch pass also lands in
    the ``eval.rerank_batch_ms{model=...}`` histogram and the
    ``eval.lists{model=...}`` counter.
    """
    config = bundle.config
    model_name = getattr(reranker, "name", None) or "init"
    ks = tuple(ks) if ks is not None else config.eval_ks
    catalog = bundle.world.catalog
    requests = bundle.test_requests
    registry = get_registry()
    batch_hist = registry.histogram("eval.rerank_batch_ms", model=model_name)
    lists_counter = registry.counter("eval.lists", model=model_name)

    faultpoint("eval.rerank")
    with trace("eval.rerank"):
        # The pass's re-ranked lists as one (N, L) item array with a list
        # mask.  Re-rankers order a list's padding after its items, so the
        # positions past a list's end gather padding: item 0, no click.
        lengths = np.array([r.list_length for r in requests], dtype=np.int64)
        mask = np.arange(lengths.max(initial=0)) < lengths[:, None]
        user_ids = np.zeros(len(requests), dtype=np.int64)
        items = np.zeros(mask.shape, dtype=np.int64)
        logged_clicks = np.zeros(mask.shape)
        rerank_seconds = 0.0
        for start in range(0, len(requests), eval_batch_size):
            chunk = requests[start : start + eval_batch_size]
            batch = build_batch(
                chunk,
                catalog,
                bundle.world.population,
                bundle.histories,
                topic_history_length=config.train.topic_history_length,
                flat_history_length=config.train.flat_history_length,
            )
            with trace("eval.rerank_batch") as span:
                perm = (
                    identity_permutation(batch)
                    if reranker is None
                    else reranker.rerank(batch)
                )
            rerank_seconds += span.duration_s
            batch_hist.observe(span.duration_ms)
            lists_counter.inc(len(chunk))
            rows = slice(start, start + len(chunk))
            perm = np.asarray(perm, dtype=np.int64)
            user_ids[rows] = batch.user_ids
            items[rows, : batch.list_length] = np.take_along_axis(
                batch.item_ids, perm, axis=1
            )
            logged_clicks[rows, : batch.list_length] = np.take_along_axis(
                batch.clicks, perm, axis=1
            )

    faultpoint("eval.metrics")
    with trace("eval.metrics"):
        click_model = bundle.click_model
        attraction = np.where(
            mask, click_model.attraction_probabilities(user_ids, items), 0.0
        )
        termination = click_model.termination_probabilities(mask.shape[1])
        coverage = np.where(mask[..., None], catalog.coverage[items], 0.0)
        # NDCG relevance labels: attraction probabilities in expected mode
        # (position-unconfounded), realized clicks in logged mode.
        if config.eval_mode == "expected":
            clicks = expected_clicks_per_position(attraction, termination)
            relevance = attraction
        else:
            clicks = relevance = logged_clicks
        # Padding carries no click, so its bid adds no revenue.
        bids = catalog.bids[items] if catalog.bids is not None else None
        metrics: dict[str, float] = {}
        for k in ks:
            metrics[f"click@{k}"] = clicks_at_k(clicks, k)
            metrics[f"ndcg@{k}"] = ndcg_at_k(relevance, k)
            metrics[f"div@{k}"] = div_at_k(coverage, k)
            metrics[f"satis@{k}"] = satis_at_k(attraction, termination, k)
            if bids is not None:
                metrics[f"rev@{k}"] = revenue_at_k(clicks, bids, k)

        per_request = {k: clicks[:, :k].sum(axis=1) for k in ks}

    rerank_ms_per_list = (
        1000.0 * rerank_seconds / len(requests) if requests else 0.0
    )
    registry.gauge("eval.rerank_ms_per_list", model=model_name).set(
        rerank_ms_per_list
    )
    for metric_name, value in metrics.items():
        registry.gauge(f"eval.{metric_name}", model=model_name).set(value)
    get_run_logger().log(
        "eval.result",
        model=model_name,
        rerank_ms_per_list=rerank_ms_per_list,
        **metrics,
    )
    return EvaluationResult(metrics=metrics, per_request_clicks=per_request)


def run_experiment(
    config: ExperimentConfig,
    models: Sequence[str],
    bundle: ExperimentBundle | None = None,
) -> dict[str, EvaluationResult]:
    """Fit and evaluate each named model; returns name -> result.

    Each model runs under an ``experiment.model`` span with ``fit`` /
    ``evaluate`` children, and the run logger receives ``experiment.start``
    and per-model ``eval.result`` events (silent unless a sink is
    installed; see ``repro.obs``).
    """
    logger = get_run_logger()
    logger.log("experiment.start", models=list(models), **config.tags())
    bundle = bundle if bundle is not None else prepare_bundle(config)
    results: dict[str, EvaluationResult] = {}
    for name in models:
        with trace(f"experiment.model:{name}"):
            reranker = make_reranker(name, bundle)
            if reranker is not None and reranker.requires_training:
                with trace("fit"):
                    reranker.fit(
                        bundle.train_requests,
                        bundle.world.catalog,
                        bundle.world.population,
                        bundle.histories,
                    )
            with trace("evaluate"):
                results[name] = evaluate_reranker(reranker, bundle)
    return results
