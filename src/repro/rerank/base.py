"""Re-ranker interface shared by RAPID and all baselines.

A re-ranker consumes a :class:`~repro.data.batching.RerankBatch` (user and
item features, coverage, initial scores, history views) and produces a
permutation of each list.  Score-based models implement
:meth:`Reranker.score_batch`; greedy/sequential models (MMR, DPP, SSD,
PD-GAN) override :meth:`Reranker.rerank` directly.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from typing import Sequence

import numpy as np

from ..data.batching import RerankBatch
from ..data.schema import Catalog, Population, RankingRequest
from ..nn import inference as _nn_inference
from ..obs import get_registry

# The module object itself, not the re-exported ``chaos()`` context manager
# that shadows it on the package namespace.
_chaos = importlib.import_module(".resilience.chaos", __package__.rsplit(".", 1)[0])

__all__ = ["Reranker", "identity_permutation"]


def identity_permutation(batch: RerankBatch) -> np.ndarray:
    """(B, L) permutation that keeps the initial order."""
    return np.tile(np.arange(batch.list_length), (batch.batch_size, 1))


_timing_state = threading.local()


def _timed_rerank(fn):
    """Record ``rerank`` wall time into ``rerank.latency_ms{reranker=...}``.

    Applied to the base implementation and, via ``__init_subclass__``, to
    every override — so all baselines are measured uniformly regardless of
    whether they score-and-sort or build lists greedily.  A per-thread
    depth guard keeps overrides that delegate to ``super().rerank`` from
    double-counting: only the outermost call is observed.

    The same uniform wrapper is the serving-path chaos hook: when a fault
    plan is armed, every ``rerank`` entry visits the
    ``rerank.score.<name>`` fault point (all depths, so a
    ``ResilientReranker``'s inner primary stage can be targeted without
    faulting the resilient wrapper itself).  Disarmed cost is a single
    module-attribute ``None`` check, gated by
    ``benchmarks/bench_resilience_overhead.py``.
    """

    @functools.wraps(fn)
    def wrapper(self, batch: RerankBatch) -> np.ndarray:
        if _chaos._ACTIVE is not None:
            name = getattr(self, "name", None) or type(self).__name__
            _chaos.faultpoint(f"rerank.score.{name}")
        depth = getattr(_timing_state, "depth", 0)
        _timing_state.depth = depth + 1
        start = time.perf_counter()
        try:
            return fn(self, batch)
        finally:
            elapsed_ms = 1000.0 * (time.perf_counter() - start)
            _timing_state.depth = depth
            if depth == 0:
                name = getattr(self, "name", None) or type(self).__name__
                get_registry().histogram(
                    "rerank.latency_ms", reranker=name
                ).observe(elapsed_ms)
                mode = "infer" if _nn_inference.infer_enabled() else "tape"
                get_registry().counter(
                    "rerank.dispatch", mode=mode, reranker=name
                ).inc()

    wrapper._obs_timed = True
    return wrapper


class Reranker:
    """Base class; subclasses set ``name`` and implement scoring/reranking."""

    name = "base"
    requires_training = False

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        override = cls.__dict__.get("rerank")
        if override is not None and not getattr(override, "_obs_timed", False):
            cls.rerank = _timed_rerank(override)

    def fit(
        self,
        requests: Sequence[RankingRequest],
        catalog: Catalog,
        population: Population,
        histories: list[np.ndarray],
    ) -> "Reranker":
        """Train on click-labeled requests.  No-op for heuristic models."""
        return self

    def score_batch(self, batch: RerankBatch) -> np.ndarray:
        """Per-item ranking scores (B, L); higher ranks earlier."""
        raise NotImplementedError(
            f"{type(self).__name__} does not produce per-item scores"
        )

    def rerank(self, batch: RerankBatch) -> np.ndarray:
        """(B, L) permutation indices into each list (best first).

        Padded positions are always pushed to the back.
        """
        scores = np.array(self.score_batch(batch), dtype=np.float64, copy=True)
        scores[~batch.mask] = -np.inf
        return np.argsort(-scores, axis=1, kind="stable")


Reranker.rerank = _timed_rerank(Reranker.rerank)
