"""Zipfian request traffic from millions of distinct users.

Production rerank traffic is heavy-tailed: a small set of very active
users dominates request volume while a long tail of near-cold users keeps
arriving.  :class:`ZipfianWorkload` reproduces that shape — virtual user
``k`` (rank order) is drawn with probability ∝ ``(k+1)^-s`` over up to
millions of *distinct* virtual identities, each mapped onto the finite
feature population for the forward pass while keeping its own cache
identity (``ServeRequest.cache_user``).  A virtual user's candidate list
is a deterministic function of its identity (a per-user seeded RNG), so
hot users re-issue identical requests — the regime a slate cache exists
for — and cold users miss, exactly as in live serving.

The workload only produces requests; the caller drives the service.  The
repository benchmark (``perfbench/``, workloads ``serve_hot`` and
``serve_miss``) runs its own closed-loop clients over it, and the serving
tests run a manual-clock closed loop over it.
"""

from __future__ import annotations

import numpy as np

from .service import ServeRequest

__all__ = ["ZipfianWorkload"]


class ZipfianWorkload:
    """Seeded request source over a bounded-Zipf virtual-user population.

    Parameters
    ----------
    catalog / population:
        The tenant's world; candidate items and forward-pass users come
        from here.
    num_virtual_users:
        Distinct cache identities (rank 0 = hottest).  Millions are fine:
        the rank distribution is one cumulative array.
    exponent:
        Zipf exponent ``s``; ~1.1 matches typical recsys traffic skew.
    list_length:
        Candidates per request.
    rescore_probability:
        Chance a request carries freshly-drawn initial scores instead of
        the user's stable ones — upstream-ranker churn, forcing a cache
        miss for an otherwise-hot request.
    """

    def __init__(
        self,
        catalog,
        population,
        num_virtual_users: int = 1_000_000,
        exponent: float = 1.1,
        list_length: int = 50,
        tenant: str = "default",
        rescore_probability: float = 0.0,
        seed: int = 0,
    ) -> None:
        if num_virtual_users < 1:
            raise ValueError("num_virtual_users must be >= 1")
        num_items = catalog.features.shape[0]
        if list_length > num_items:
            raise ValueError("list_length exceeds catalog size")
        self.catalog = catalog
        self.num_users = population.features.shape[0]
        self.num_items = num_items
        self.num_virtual_users = num_virtual_users
        self.list_length = list_length
        self.tenant = tenant
        self.rescore_probability = rescore_probability
        self.seed = seed
        self._rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA11)))
        ranks = np.arange(1, num_virtual_users + 1, dtype=np.float64)
        weights = ranks**-exponent
        self._cumulative = np.cumsum(weights / weights.sum())

    def sample_virtual_user(self) -> int:
        """One virtual user id, Zipf-distributed by rank."""
        u = self._rng.random()
        return int(np.searchsorted(self._cumulative, u, side="right"))

    def request_for(self, virtual_user: int) -> ServeRequest:
        """The (stable) request this virtual user issues."""
        user_rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, 0xC0FFEE, virtual_user))
        )
        items = user_rng.choice(
            self.num_items, size=self.list_length, replace=False
        )
        scores = user_rng.normal(size=self.list_length)
        if (
            self.rescore_probability > 0.0
            and self._rng.random() < self.rescore_probability
        ):
            scores = self._rng.normal(size=self.list_length)
        return ServeRequest(
            user_id=virtual_user % self.num_users,
            items=items,
            initial_scores=scores,
            tenant=self.tenant,
            cache_user=virtual_user,
        )

    def request(self) -> ServeRequest:
        return self.request_for(self.sample_virtual_user())
