"""Reference implementations that tests compare production paths against.

**Fused recurrent ops.**  Each recurrent function here builds the plain
autograd graph a fused kernel in :mod:`repro.nn.kernels` collapses: gate
slices, sigmoids, tanh, the elementwise state update and the
``new * keep + old * (1 - keep)`` mask blend, one timestep at a time.
Forward values are bitwise equal to the kernels (same primitive formulas
in the same order); gradients differ only in backward summation order.

Production never calls these.  ``repro.nn.kernels.use_fused(False)``
installs :data:`REFERENCE_OPS` under the fused op names on
:class:`~repro.nn.tensor.Tensor` for the duration of a block, so the
differential oracle, the fuzzer and the training-parity tests compare the
kernels against this graph without a branch in the layers.

**Data-parallel training.**  :func:`train_dist_reference` is the lockstep
arithmetic of :func:`repro.dist.train_dist` in one process: per-rank
backwards in rank order, one count-weighted average, one apply.  It has
no fleet, checkpoint or resume; the dist tests hold the process fleet to
it bit for bit.

**Baseline training.**  :func:`fit_neural_reference` is the Adam loop
that each list-wise neural baseline (DLCM, PRM, SetRank, SRGA, DESA and
Seq2Slate) once carried in its own ``fit``.  The baselines now train
through :func:`repro.core.trainer.train_rapid` with their loss passed in,
and must match this loop's losses and parameters bit for bit.

**Batch assembly.**  :func:`build_batch_reference` fills a
:class:`~repro.data.RerankBatch` one request at a time, and
:func:`split_history_by_topic_reference` splits one history with a loop
over topics.  :func:`repro.data.build_batch` does both with whole-batch
gathers and must match every field bit for bit.

**Evaluation.**  :func:`evaluate_reranker_reference` scores one re-ranked
list at a time: a DCM call per list and per-list metric formulas.
:func:`repro.eval.evaluate_reranker` scores the pass as one (N, L) array
and matches it bitwise when all lists have one length; padding shorter
lists reorders float sums only.

**Offline set-up.**  :func:`din_score_reference` and
:func:`din_fit_reference` run DIN the per-pair way: every (list,
candidate) pair gathers its user's history in a Python loop
(:func:`din_history_arrays_reference`), projects it in its own block and
feeds the concatenated ``[t, h, t*h, t-h]`` input to the attention MLP
(:func:`din_forward_reference`).  :class:`repro.rankers.DINRanker` builds
one history per list and applies the attention's first layer block by
block, which sums in another order; its scores and fitted parameters must
match within a stated budget and rank every list the same way.
:func:`sample_candidate_sets_reference` draws candidate sets with a
per-request argsort and set difference; the world's sampler must draw the
same RNG stream and return the same candidates.
:func:`simulate_clicks_reference` simulates one DCM session per request;
:meth:`repro.click.DependentClickModel.simulate` takes a split's requests
in one call and must return the same clicks and leave the generator in
the same state.
"""

from __future__ import annotations

import numpy as np

from .. import nn
from ..utils.rng import make_rng
from ..core.trainer import apply_step, backward_batch
from ..data import RerankBatch
from ..data.batching import MEMBERSHIP_THRESHOLD, iterate_batches
from ..dist.train import (
    _collect_grads,
    _rank_batches,
    _step_rng,
    _steps_per_epoch,
    average_contributions,
    shard_requests,
)
from ..eval.experiment import EvaluationResult
from ..nn.kernels import zero_state
from ..nn.tensor import Tensor
from ..rankers.din import _SCORE_CHUNK_LISTS, _DINNetwork
from ..rerank import identity_permutation
from ..rerank.neural import _LOSSES
from ..rerank.seq2slate import Seq2SlateReranker

__all__ = [
    "lstm_cell",
    "gru_cell",
    "lstm_scan",
    "gru_scan",
    "REFERENCE_OPS",
    "train_dist_reference",
    "fit_neural_reference",
    "split_history_by_topic_reference",
    "build_batch_reference",
    "evaluate_reranker_reference",
    "din_history_arrays_reference",
    "din_forward_reference",
    "din_fit_reference",
    "din_score_reference",
    "sample_candidate_sets_reference",
    "simulate_clicks_reference",
]


def _blend(new: Tensor, old: Tensor, mask_t: np.ndarray | None) -> Tensor:
    """Keep the previous state where ``mask_t`` marks padding (False)."""
    if mask_t is None:
        return new
    keep = np.asarray(mask_t, dtype=np.float64)[:, None]
    return new * Tensor(keep) + old * Tensor(1.0 - keep)


def lstm_cell(
    gates: Tensor, h: Tensor, c: Tensor, mask_t: np.ndarray | None = None
) -> tuple[Tensor, Tensor]:
    """One LSTM step from (B, 4H) pre-activations packed ``[i, f, g, o]``."""
    hs = gates.shape[-1] // 4
    i = gates[:, :hs].sigmoid()
    f = gates[:, hs : 2 * hs].sigmoid()
    g = gates[:, 2 * hs : 3 * hs].tanh()
    o = gates[:, 3 * hs :].sigmoid()
    c_next = f * c + i * g
    h_next = o * c_next.tanh()
    return _blend(h_next, h, mask_t), _blend(c_next, c, mask_t)


def gru_cell(
    gi: Tensor, gh: Tensor, h: Tensor, mask_t: np.ndarray | None = None
) -> Tensor:
    """One GRU step from (B, 3H) pre-activations packed ``[r, z, n]``."""
    hs = gi.shape[-1] // 3
    r = (gi[:, :hs] + gh[:, :hs]).sigmoid()
    z = (gi[:, hs : 2 * hs] + gh[:, hs : 2 * hs]).sigmoid()
    n = (gi[:, 2 * hs :] + r * gh[:, 2 * hs :]).tanh()
    return _blend((1.0 - z) * n + z * h, h, mask_t)


def lstm_scan(gi: Tensor, w_hh: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """(B, T, H) hidden states of an LSTM scan from zero initial state."""
    batch, time, width = gi.shape
    h = c = zero_state(batch, width // 4)
    outputs = []
    for t in range(time):
        gates = gi[:, t, :] + h @ w_hh.T
        h, c = lstm_cell(gates, h, c, None if mask is None else mask[:, t])
        outputs.append(h)
    return Tensor.stack(outputs, axis=1)


def gru_scan(gi: Tensor, w_hh: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """(B, T, H) hidden states of a GRU scan from zero initial state."""
    batch, time, width = gi.shape
    h = zero_state(batch, width // 3)
    outputs = []
    for t in range(time):
        h = gru_cell(gi[:, t, :], h @ w_hh.T, h, None if mask is None else mask[:, t])
        outputs.append(h)
    return Tensor.stack(outputs, axis=1)


#: Fused op name -> its composed reference (installed by ``use_fused(False)``).
REFERENCE_OPS = {
    "lstm_cell_fused": lstm_cell,
    "gru_cell_fused": gru_cell,
    "lstm_scan_fused": lstm_scan,
    "gru_scan_fused": gru_scan,
}


def train_dist_reference(
    model, requests, catalog, population, histories, config, world_size: int
) -> list[float]:
    """Train ``model`` in place as a ``world_size`` fleet would.

    Returns the per-epoch loss curve.
    """
    shards = shard_requests(requests, world_size)
    optimizer = nn.Adam(
        model.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    model.train()
    steps = _steps_per_epoch(shards, config.batch_size)
    losses = []
    for epoch in range(config.epochs):
        batches = [
            _rank_batches(shard, catalog, population, histories, config, epoch, rank)
            for rank, shard in enumerate(shards)
        ]
        step_losses = []
        for step in range(steps):
            contribs = []
            for rank in range(world_size):
                loss, count = backward_batch(
                    model,
                    optimizer,
                    batches[rank][step],
                    _step_rng(config.seed, epoch, step, rank),
                )
                contribs.append(
                    (rank, _collect_grads(model), float(loss.item()), count)
                )
            averaged, step_loss = average_contributions(contribs)
            apply_step(model, optimizer, config.grad_clip, grads=averaged)
            step_losses.append(step_loss)
        losses.append(float(np.mean(step_losses)))
    return losses


def fit_neural_reference(reranker, requests, catalog, population, histories):
    """Fit a list-wise neural baseline with its own Adam loop.

    The five ``_LOSSES`` baselines minimize their named loss on the
    network's score logits; Seq2Slate minimizes its stepwise pointer loss.
    Returns ``reranker`` with ``network`` and ``training_losses`` set.
    """
    config = reranker.train_config
    if reranker.network is None:
        reranker.network = reranker.build_network(catalog, population)
    network = reranker.network
    optimizer = nn.Adam(
        network.parameters(), lr=config.lr, weight_decay=config.weight_decay
    )
    network.train()
    reranker.training_losses = []
    for epoch in range(config.epochs):
        epoch_losses = []
        for batch in iterate_batches(
            requests,
            catalog,
            population,
            histories,
            batch_size=config.batch_size,
            shuffle=True,
            seed=config.seed + epoch,
            topic_history_length=config.topic_history_length,
            flat_history_length=config.flat_history_length,
        ):
            optimizer.zero_grad()
            if isinstance(reranker, Seq2SlateReranker):
                loss = reranker._loss(network, batch, None)
            else:
                loss_fn = _LOSSES[reranker.loss]
                loss = loss_fn(network(batch), batch.clicks, batch.training_mask)
            loss.backward()
            nn.clip_grad_norm(network.parameters(), config.grad_clip)
            optimizer.step()
            epoch_losses.append(loss.item())
        reranker.training_losses.append(float(np.mean(epoch_losses)))
    return reranker


def split_history_by_topic_reference(
    history: np.ndarray,
    coverage: np.ndarray,
    num_topics: int,
    max_length: int,
    membership_threshold: float = MEMBERSHIP_THRESHOLD,
) -> tuple[np.ndarray, np.ndarray]:
    """``(ids (m, D), mask (m, D))`` of one history, one topic at a time."""
    history = np.asarray(history, dtype=np.int64)
    ids = np.full((num_topics, max_length), -1, dtype=np.int64)
    mask = np.zeros((num_topics, max_length), dtype=bool)
    if history.size == 0:
        return ids, mask
    item_cov = coverage[history]  # (H, m)
    dominant = item_cov.argmax(axis=1)
    for topic in range(num_topics):
        member = (item_cov[:, topic] >= membership_threshold) | (dominant == topic)
        topical = history[member][-max_length:]
        if topical.size:
            ids[topic, : len(topical)] = topical
            mask[topic, : len(topical)] = True
    return ids, mask


def build_batch_reference(
    requests,
    catalog,
    population,
    histories,
    topic_history_length: int = 5,
    flat_history_length: int = 20,
) -> RerankBatch:
    """:func:`repro.data.build_batch`, filled one request at a time."""
    if not requests:
        raise ValueError("cannot build a batch from zero requests")
    batch = len(requests)
    length = max(r.list_length for r in requests)
    num_topics = catalog.num_topics
    q_v = catalog.feature_dim

    user_ids = np.array([r.user_id for r in requests], dtype=np.int64)
    item_ids = np.zeros((batch, length), dtype=np.int64)
    item_features = np.zeros((batch, length, q_v))
    coverage = np.zeros((batch, length, num_topics))
    initial_scores = np.zeros((batch, length))
    clicks = np.zeros((batch, length))
    mask = np.zeros((batch, length), dtype=bool)
    observed = np.zeros((batch, length), dtype=bool)
    bids = np.zeros((batch, length)) if catalog.bids is not None else None

    hist_features = np.zeros((batch, flat_history_length, q_v))
    hist_mask = np.zeros((batch, flat_history_length), dtype=bool)
    topic_features = np.zeros((batch, num_topics, topic_history_length, q_v))
    topic_mask = np.zeros((batch, num_topics, topic_history_length), dtype=bool)

    for row, request in enumerate(requests):
        n = request.list_length
        item_ids[row, :n] = request.items
        item_features[row, :n] = catalog.features[request.items]
        coverage[row, :n] = catalog.coverage[request.items]
        initial_scores[row, :n] = request.initial_scores
        if request.clicks is not None:
            clicks[row, :n] = request.clicks
        mask[row, :n] = True
        if (
            not request.fully_observed
            and request.clicks is not None
            and request.clicks.max() > 0.5
        ):
            last_click = int(np.flatnonzero(request.clicks > 0.5)[-1])
            observed[row, : last_click + 1] = True
        else:
            observed[row, :n] = True
        if bids is not None:
            bids[row, :n] = catalog.bids[request.items]

        history = np.asarray(histories[request.user_id], dtype=np.int64)
        recent = history[-flat_history_length:]
        if recent.size:
            hist_features[row, : len(recent)] = catalog.features[recent]
            hist_mask[row, : len(recent)] = True
        topic_ids, t_mask = split_history_by_topic_reference(
            history, catalog.coverage, num_topics, topic_history_length
        )
        valid = topic_ids >= 0
        topic_features[row][valid] = catalog.features[topic_ids[valid]]
        topic_mask[row] = t_mask

    return RerankBatch(
        user_ids=user_ids,
        user_features=population.features[user_ids],
        item_ids=item_ids,
        item_features=item_features,
        coverage=coverage,
        initial_scores=initial_scores,
        clicks=clicks,
        mask=mask,
        observed=observed,
        history_features=hist_features,
        history_mask=hist_mask,
        topic_history_features=topic_features,
        topic_history_mask=topic_mask,
        bids=bids,
    )


def _ndcg(row: np.ndarray, k: int) -> float:
    discounts = 1.0 / np.log2(np.arange(2, k + 2))
    top = row[:k]
    dcg = float((top * discounts[: len(top)]).sum())
    ideal = np.sort(row)[::-1][:k]
    idcg = float((ideal * discounts[: len(ideal)]).sum())
    return dcg / idcg if idcg > 0 else 0.0


def evaluate_reranker_reference(
    reranker, bundle, ks=None, eval_batch_size: int = 256
) -> EvaluationResult:
    """:func:`repro.eval.evaluate_reranker`'s metrics, one list at a time."""
    config = bundle.config
    ks = tuple(ks) if ks is not None else config.eval_ks
    catalog = bundle.world.catalog
    requests = bundle.test_requests
    permutations = []
    for start in range(0, len(requests), eval_batch_size):
        chunk = requests[start : start + eval_batch_size]
        batch = build_batch_reference(
            chunk,
            catalog,
            bundle.world.population,
            bundle.histories,
            topic_history_length=config.train.topic_history_length,
            flat_history_length=config.train.flat_history_length,
        )
        perm = (
            identity_permutation(batch)
            if reranker is None
            else reranker.rerank(batch)
        )
        permutations.extend(perm[row] for row in range(len(chunk)))

    click_rows, coverage_rows, attraction_rows, bid_rows = [], [], [], []
    for request, perm in zip(requests, permutations):
        order = perm[: request.list_length]
        items = request.items[order]
        coverage_rows.append(catalog.coverage[items])
        if catalog.bids is not None:
            bid_rows.append(catalog.bids[items])
        phi = bundle.click_model.attraction_probabilities(request.user_id, items)
        eps = bundle.click_model.termination_probabilities(len(items))
        attraction_rows.append(phi)
        if config.eval_mode == "expected":
            examine = np.concatenate([[1.0], np.cumprod(1.0 - phi * eps)[:-1]])
            click_rows.append(examine * phi)
        else:
            click_rows.append(request.clicks[order])

    ndcg_rows = attraction_rows if config.eval_mode == "expected" else click_rows
    termination = bundle.click_model.termination_probabilities(config.list_length)
    metrics = {}
    for k in ks:
        metrics[f"click@{k}"] = float(np.mean([r[:k].sum() for r in click_rows]))
        metrics[f"ndcg@{k}"] = float(np.mean([_ndcg(r, k) for r in ndcg_rows]))
        metrics[f"div@{k}"] = float(
            np.mean(
                [(1.0 - np.prod(1.0 - c[:k], axis=0)).sum() for c in coverage_rows]
            )
        )
        metrics[f"satis@{k}"] = float(
            np.mean(
                [
                    1.0 - float(np.prod(1.0 - termination[: len(p[:k])] * p[:k]))
                    for p in attraction_rows
                ]
            )
        )
        if bid_rows:
            metrics[f"rev@{k}"] = float(
                np.mean(
                    [
                        float((c[:k] * b[: len(c[:k])]).sum())
                        for c, b in zip(click_rows, bid_rows)
                    ]
                )
            )
    per_request = {
        k: np.asarray([row[:k].sum() for row in click_rows]) for k in ks
    }
    return EvaluationResult(metrics=metrics, per_request_clicks=per_request)


def din_history_arrays_reference(user_ids, catalog, histories, history_length):
    """One zero-padded (history_length, item_dim) block per entry of ``user_ids``."""
    batch = len(user_ids)
    features = np.zeros((batch, history_length, catalog.feature_dim))
    mask = np.zeros((batch, history_length), dtype=bool)
    for row, user in enumerate(user_ids):
        recent = np.asarray(histories[user], dtype=np.int64)[-history_length:]
        if recent.size:
            features[row, : len(recent)] = catalog.features[recent]
            mask[row, : len(recent)] = True
    return features, mask


def din_forward_reference(
    network, user_features, item_features, item_coverage, history_features, history_mask
) -> Tensor:
    """The DIN forward with one projected history block per candidate and
    the attention input concatenated as ``[t, h, t*h, t-h]``."""
    target = network.item_proj(Tensor(item_features))
    history = network.item_proj(Tensor(history_features))
    batch, horizon, hidden = history.shape
    target_tiled = target.reshape(batch, 1, hidden) + Tensor(
        np.zeros((batch, horizon, hidden))
    )
    pair = Tensor.concatenate(
        [target_tiled, history, target_tiled * history, target_tiled - history],
        axis=2,
    )
    weights = network.attention_mlp(pair).reshape(batch, horizon)
    weights = weights * Tensor(history_mask.astype(np.float64))
    interest = (weights.reshape(batch, horizon, 1) * history).sum(axis=1)
    combined = Tensor.concatenate(
        [Tensor(user_features), Tensor(item_features), Tensor(item_coverage), interest],
        axis=1,
    )
    return network.output_mlp(combined).reshape(batch)


def din_fit_reference(ranker, interactions, catalog, population, histories):
    """:meth:`DINRanker.fit` with a per-row history gather and forward."""
    rng = make_rng(ranker.seed)
    ranker.network = _DINNetwork(
        population.feature_dim,
        catalog.feature_dim,
        catalog.num_topics,
        ranker.hidden,
        rng,
    )
    optimizer = nn.Adam(ranker.network.parameters(), lr=ranker.lr)
    interactions = np.asarray(interactions, dtype=np.int64)
    for _ in range(ranker.epochs):
        order = rng.permutation(len(interactions))
        for start in range(0, len(order), ranker.batch_size):
            rows = interactions[order[start : start + ranker.batch_size]]
            users, items, labels = rows[:, 0], rows[:, 1], rows[:, 2]
            hist_f, hist_m = din_history_arrays_reference(
                users, catalog, histories, ranker.history_length
            )
            optimizer.zero_grad()
            logits = din_forward_reference(
                ranker.network,
                population.features[users],
                catalog.features[items],
                catalog.coverage[items],
                hist_f,
                hist_m,
            )
            loss = nn.functional.binary_cross_entropy_with_logits(
                logits, labels.astype(np.float64)
            )
            loss.backward()
            optimizer.step()
    return ranker


def din_score_reference(
    ranker, user_ids, candidate_items, catalog, population, histories
):
    """:meth:`DINRanker.score` with one history block per (list, candidate) pair."""
    user_ids = np.asarray(user_ids, dtype=np.int64)
    candidate_items = np.asarray(candidate_items, dtype=np.int64)
    n, length = candidate_items.shape
    scores = np.empty((n, length))
    starts = list(range(0, n, _SCORE_CHUNK_LISTS))
    if len(starts) > 1 and n - starts[-1] < _SCORE_CHUNK_LISTS // 2:
        starts.pop()
    for start, stop in zip(starts, starts[1:] + [n]):
        flat_users = np.repeat(user_ids[start:stop], length)
        flat_items = candidate_items[start:stop].ravel()
        hist_f, hist_m = din_history_arrays_reference(
            flat_users, catalog, histories, ranker.history_length
        )
        with nn.no_grad():
            logits = din_forward_reference(
                ranker.network,
                population.features[flat_users],
                catalog.features[flat_items],
                catalog.coverage[flat_items],
                hist_f,
                hist_m,
            )
        scores[start:stop] = logits.numpy().reshape(stop - start, length)
    return scores


def sample_candidate_sets_reference(
    world, num_requests, list_length, relevant_fraction=0.4, pool_size=40
):
    """:meth:`SyntheticWorld.sample_candidate_sets`, one argsort and
    ``setdiff1d`` per request, drawing from the world's own generator."""
    if list_length > world.config.num_items:
        raise ValueError("list_length exceeds catalog size")
    matrix = world.relevance_matrix()
    user_ids = world._rng.integers(0, world.config.num_users, size=num_requests)
    candidates = np.empty((num_requests, list_length), dtype=np.int64)
    num_relevant = int(round(relevant_fraction * list_length))
    for row, user in enumerate(user_ids):
        top_pool = np.argsort(-matrix[user])[:pool_size]
        chosen = world._rng.choice(
            top_pool, size=min(num_relevant, len(top_pool)), replace=False
        )
        remaining = np.setdiff1d(
            np.arange(world.config.num_items), chosen, assume_unique=False
        )
        filler = world._rng.choice(
            remaining, size=list_length - len(chosen), replace=False
        )
        row_items = np.concatenate([chosen, filler])
        world._rng.shuffle(row_items)
        candidates[row] = row_items
    return user_ids, candidates


def simulate_clicks_reference(
    click_model, user_ids, items, rng, full_information=False
):
    """:meth:`DependentClickModel.simulate` one request at a time: a phi
    call, an attraction draw and (censored) a termination loop per row."""
    rows = []
    for user, row_items in zip(user_ids, items):
        phi = click_model.attraction_probabilities(int(user), row_items)
        eps = click_model.termination_probabilities(len(row_items))
        attracted = (rng.random(len(row_items)) < phi).astype(np.float64)
        if full_information:
            rows.append(attracted)
            continue
        clicks = np.zeros(len(row_items))
        for k in range(len(row_items)):
            if attracted[k]:
                clicks[k] = 1.0
                if rng.random() < eps[k]:
                    break
        rows.append(clicks)
    return np.stack(rows) if rows else np.zeros(np.shape(items))
