"""Synthetic user/item world with ground-truth relevance and diversity taste.

The public Taobao / MovieLens datasets are used *semi-synthetically* in the
paper: raw interactions only seed an initial ranker and a DCM click
simulator.  Since the raw dumps are not redistributable (and unavailable
offline), we generate a world with the same statistical structure the
pipeline depends on:

- items carry latent embeddings clustered by topic, observable features
  ``x_v``, and a topic coverage ``tau_v``;
- users carry latent tastes, observable features ``x_u``, a hidden
  preference distribution ``theta*`` over topics (narrow ↔ broad,
  Dirichlet-distributed with per-user concentration), and a hidden per-topic
  diversity weight ``rho`` that grows with taste breadth — exactly the
  personalization signal RAPID is designed to recover;
- ground-truth attraction combines latent affinity and topic affinity, so
  both collaborative and topical information are predictive.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..utils.rng import make_rng
from .schema import Catalog, Population

__all__ = ["WorldConfig", "SyntheticWorld"]


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-x))


@dataclass(frozen=True)
class WorldConfig:
    """Knobs of the synthetic world generator."""

    num_users: int = 200
    num_items: int = 500
    num_topics: int = 5
    latent_dim: int = 8
    user_feature_dim: int = 8
    item_feature_dim: int = 8
    feature_noise: float = 1.0
    relevance_latent_weight: float = 3.5
    relevance_topic_weight: float = 2.0
    relevance_bias: float = -2.5
    concentration_low: float = 0.15
    concentration_high: float = 3.0
    history_length: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if min(self.num_users, self.num_items, self.num_topics) < 1:
            raise ValueError("world sizes must be positive")
        if self.num_items < 2 * self.num_topics:
            raise ValueError("need at least two items per topic")


class SyntheticWorld:
    """A fully specified recommendation universe.

    Parameters
    ----------
    config:
        World dimensions and generative knobs.
    coverage:
        Optional pre-built (num_items, m) coverage; when omitted, items get
        topic-clustered latents and soft coverage is the cluster membership.
    """

    def __init__(
        self, config: WorldConfig, coverage: np.ndarray | None = None
    ) -> None:
        self.config = config
        self._rng = make_rng(config.seed)
        self._build_items(coverage)
        self._build_users()
        self._relevance_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    # World construction
    # ------------------------------------------------------------------
    def _build_items(self, coverage: np.ndarray | None) -> None:
        cfg = self.config
        rng = self._rng
        # Topic centroids in latent space; items scatter around their topics.
        centroids = rng.normal(0.0, 1.0, size=(cfg.num_topics, cfg.latent_dim))
        assignment = rng.integers(0, cfg.num_topics, size=cfg.num_items)
        item_latent = centroids[assignment] + rng.normal(
            0.0, 0.45, size=(cfg.num_items, cfg.latent_dim)
        )
        if coverage is None:
            coverage = np.zeros((cfg.num_items, cfg.num_topics))
            coverage[np.arange(cfg.num_items), assignment] = 1.0
        coverage = np.asarray(coverage, dtype=np.float64)
        if coverage.shape != (cfg.num_items, cfg.num_topics):
            raise ValueError(
                f"coverage shape {coverage.shape} does not match "
                f"({cfg.num_items}, {cfg.num_topics})"
            )
        projection = rng.normal(
            0.0, 1.0, size=(cfg.latent_dim, cfg.item_feature_dim)
        ) / np.sqrt(cfg.latent_dim)
        features = item_latent @ projection + rng.normal(
            0.0, cfg.feature_noise, size=(cfg.num_items, cfg.item_feature_dim)
        )
        self.item_latent = item_latent
        self.item_topic_assignment = assignment
        self.catalog = Catalog(features=features, coverage=coverage)

    def _build_users(self) -> None:
        cfg = self.config
        rng = self._rng
        # Per-user Dirichlet concentration: log-uniform between narrow and
        # broad; low concentration -> focused users, high -> diverse users.
        log_low, log_high = np.log(cfg.concentration_low), np.log(
            cfg.concentration_high
        )
        concentration = np.exp(
            rng.uniform(log_low, log_high, size=cfg.num_users)
        )
        theta = np.vstack(
            [
                rng.dirichlet(np.full(cfg.num_topics, c))
                for c in concentration
            ]
        )
        # Hidden taste embedding: mixture of the topic centroids the user
        # likes, so latent affinity and topic affinity are consistent.
        centroids = np.vstack(
            [
                self.item_latent[self.item_topic_assignment == j].mean(axis=0)
                for j in range(cfg.num_topics)
            ]
        )
        latent = theta @ centroids + rng.normal(
            0.0, 0.3, size=(cfg.num_users, cfg.latent_dim)
        )
        # Diversity weight rho: broad users (high taste entropy) want more
        # diversity, concentrated on the topics they actually like.
        entropy = -(theta * np.log(theta + 1e-12)).sum(axis=1)
        max_entropy = np.log(cfg.num_topics)
        breadth = entropy / max_entropy  # in [0, 1]
        rho = (0.2 + 0.8 * breadth)[:, None] * theta * cfg.num_topics
        rho = np.clip(rho, 0.0, 1.0)

        projection = rng.normal(
            0.0, 1.0, size=(cfg.latent_dim, cfg.user_feature_dim)
        ) / np.sqrt(cfg.latent_dim)
        features = latent @ projection + rng.normal(
            0.0, cfg.feature_noise, size=(cfg.num_users, cfg.user_feature_dim)
        )
        self.user_breadth = breadth
        self.population = Population(
            features=features,
            topic_preference=theta,
            diversity_weight=rho,
            latent=latent,
        )

    # ------------------------------------------------------------------
    # Ground truth
    # ------------------------------------------------------------------
    def relevance_matrix(self) -> np.ndarray:
        """(num_users, num_items) ground-truth attraction alpha(u, v)."""
        if self._relevance_cache is None:
            cfg = self.config
            latent_term = (
                self.population.latent @ self.item_latent.T
            ) / np.sqrt(cfg.latent_dim)
            topic_term = (
                self.population.topic_preference @ self.catalog.coverage.T
            )
            logits = (
                cfg.relevance_latent_weight * latent_term
                + cfg.relevance_topic_weight * topic_term
                + cfg.relevance_bias
            )
            self._relevance_cache = _sigmoid(logits)
        return self._relevance_cache

    def relevance(self, user_ids: np.ndarray, item_ids: np.ndarray) -> np.ndarray:
        """Attraction probabilities for aligned (user, item) id arrays."""
        matrix = self.relevance_matrix()
        return matrix[np.asarray(user_ids), np.asarray(item_ids)]

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_histories(
        self, length: int | None = None, temperature: float = 0.25
    ) -> list[np.ndarray]:
        """Sample each user's positively-interacted item sequence.

        Items are drawn without replacement with probability proportional to
        ``alpha(u, .)^(1/temperature)`` — low temperature concentrates the
        history on the user's true tastes.
        """
        length = length if length is not None else self.config.history_length
        matrix = self.relevance_matrix()
        histories: list[np.ndarray] = []
        for user in range(self.config.num_users):
            weights = matrix[user] ** (1.0 / temperature)
            weights = weights / weights.sum()
            size = min(length, self.config.num_items)
            items = self._rng.choice(
                self.config.num_items, size=size, replace=False, p=weights
            )
            self._rng.shuffle(items)  # arbitrary time order
            histories.append(items.astype(np.int64))
        return histories

    def sample_ranker_training(
        self, num_interactions: int
    ) -> np.ndarray:
        """(n, 3) array of (user_id, item_id, click) for the initial ranker."""
        users = self._rng.integers(0, self.config.num_users, size=num_interactions)
        items = self._rng.integers(0, self.config.num_items, size=num_interactions)
        probs = self.relevance(users, items)
        clicks = (self._rng.random(num_interactions) < probs).astype(np.int64)
        return np.column_stack([users, items, clicks])

    def sample_candidate_sets(
        self,
        num_requests: int,
        list_length: int,
        relevant_fraction: float = 0.4,
        pool_size: int = 40,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw candidate sets: a blend of personally relevant and random items.

        Returns ``(user_ids (n,), candidates (n, L))``.  A fraction of each
        set comes from the user's top-``pool_size`` items (recall stage
        stand-in); the rest is drawn uniformly, giving the re-ranker genuine
        decisions to make.
        """
        if list_length > self.config.num_items:
            raise ValueError("list_length exceeds catalog size")
        matrix = self.relevance_matrix()
        user_ids = self._rng.integers(0, self.config.num_users, size=num_requests)
        candidates = np.empty((num_requests, list_length), dtype=np.int64)
        num_relevant = int(round(relevant_fraction * list_length))
        users, slots = np.unique(user_ids, return_inverse=True)
        top_pools = [np.argsort(-matrix[user])[:pool_size] for user in users]
        # ``flatnonzero`` of the unchosen items is the sorted array
        # ``setdiff1d(arange(num_items), chosen)`` would build.
        available = np.ones(self.config.num_items, dtype=bool)
        for row, slot in enumerate(slots):
            top_pool = top_pools[slot]
            chosen = self._rng.choice(
                top_pool, size=min(num_relevant, len(top_pool)), replace=False
            )
            available[chosen] = False
            remaining = np.flatnonzero(available)
            available[chosen] = True
            filler = self._rng.choice(
                remaining, size=list_length - len(chosen), replace=False
            )
            row_items = np.concatenate([chosen, filler])
            self._rng.shuffle(row_items)
            candidates[row] = row_items
        return user_ids, candidates
