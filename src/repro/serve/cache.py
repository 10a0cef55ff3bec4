"""Slate cache: TTL + LRU over ``(tenant, user, identity, candidate-set)`` keys.

A re-ranked slate is a pure function of (model weights, user history,
candidate list with its initial scores).  Between history updates and
model swaps that function is stable, so hot users — Zipfian traffic makes
a few users *very* hot — can be answered without a forward pass.  The
cache therefore keys on the full request identity and is invalidated by
the two events that change the function:

- ``invalidate_user`` — the user's history changed (the service calls
  this from ``update_history``); every slate cached for that user is
  dropped, so a stale slate is never served after new feedback arrives.
  Entries are indexed by the *feature* user whose history the slate was
  computed from, so every cache identity aliasing that user (load
  generators map many virtual users onto one feature user) goes too;
- ``clear`` — the model changed (``ResilientReranker.swap_primary``
  swaps weights mid-flight; the service clears the tenant's slates).

Keys are hashed to a compact digest for the index, but **collisions are
distinguished by full-key comparison**: each digest bucket chains
``(full_key, entry)`` pairs and a lookup compares the candidate ids and
initial scores byte-for-byte before declaring a hit.  The hash function
is injectable precisely so tests can force collisions and prove the
discrimination (``hash_fn=lambda payload: 0``).

Eviction is LRU over digest buckets (a hit refreshes recency); expiry is
TTL against an injectable clock, so tests advance a
:class:`~repro.serve.clock.ManualClock` instead of sleeping.  Telemetry:
``serve.cache.{hits,misses,expired,evictions,invalidations}`` counters
and the ``serve.cache.size`` gauge.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from typing import Callable

import numpy as np

from ..obs import get_registry

__all__ = ["SlateCache", "candidate_digest"]


def candidate_digest(payload: bytes) -> int:
    """Stable 64-bit digest of a packed request key (default hash_fn)."""
    return int.from_bytes(hashlib.blake2b(payload, digest_size=8).digest(), "big")


class _Entry:
    __slots__ = ("slate", "stored_at")

    def __init__(self, slate: np.ndarray, stored_at: float) -> None:
        self.slate = slate
        self.stored_at = stored_at


class SlateCache:
    """Bounded TTL cache mapping request identity → served permutation.

    Parameters
    ----------
    capacity:
        Maximum number of digest buckets kept (LRU eviction beyond it).
    ttl_s:
        Entry lifetime in seconds; ``None`` disables expiry.
    clock:
        Monotonic-seconds callable (injectable for tests).
    hash_fn:
        ``bytes -> int`` digest used for the bucket index.  Injectable so
        tests can force collisions; correctness never depends on it.
    """

    def __init__(
        self,
        capacity: int = 4096,
        ttl_s: float | None = 30.0,
        clock: Callable[[], float] = time.monotonic,
        hash_fn: Callable[[bytes], int] = candidate_digest,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None to disable)")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._hash = hash_fn
        self._lock = threading.Lock()
        # digest bucket -> [(full_key, entry), ...] chained on collision
        self._buckets: "OrderedDict[tuple, list[tuple[bytes, _Entry]]]" = (
            OrderedDict()
        )
        # (tenant, feature user) -> bucket keys, for invalidation on
        # history update
        self._by_user: dict[tuple, set[tuple]] = {}

    # -- keying --------------------------------------------------------
    @staticmethod
    def _full_key(
        user_id: int, items, scores, tenant: str, identity: int | None = None
    ) -> bytes:
        """The complete request identity, as canonical bytes.

        Initial scores are part of the identity: the same candidate set
        re-scored by the upstream ranker is a different request, and the
        cached slate would be wrong for it.
        """
        if identity is None:
            identity = user_id
        items = np.ascontiguousarray(np.asarray(items, dtype=np.int64))
        scores = np.ascontiguousarray(np.asarray(scores, dtype=np.float64))
        head = f"{tenant}\x00{user_id}\x00{identity}\x00{items.size}\x00".encode()
        return head + items.tobytes() + scores.tobytes()

    def _bucket_key(self, user_id: int, tenant: str, payload: bytes) -> tuple:
        return (tenant, user_id, self._hash(payload))

    # -- core ops ------------------------------------------------------
    def get(
        self,
        user_id: int,
        items,
        scores,
        tenant: str = "default",
        identity: int | None = None,
    ) -> np.ndarray | None:
        """The cached slate for this exact request, or ``None``.

        ``user_id`` is the feature user the slate depends on; ``identity``
        is a distinct cache identity aliasing it (defaults to ``user_id``).
        """
        payload = self._full_key(user_id, items, scores, tenant, identity)
        bucket_key = self._bucket_key(user_id, tenant, payload)
        with self._lock:
            chain = self._buckets.get(bucket_key)
            if chain is None:
                self._count("misses")
                return None
            for full_key, entry in chain:
                if full_key != payload:
                    continue
                if (
                    self.ttl_s is not None
                    and self._clock() - entry.stored_at >= self.ttl_s
                ):
                    chain.remove((full_key, entry))
                    if not chain:
                        self._drop_bucket(bucket_key)
                    self._count("expired")
                    self._count("misses")
                    return None
                self._buckets.move_to_end(bucket_key)
                self._count("hits")
                return entry.slate.copy()
            self._count("misses")
            return None

    def put(
        self,
        user_id: int,
        items,
        scores,
        slate,
        tenant: str = "default",
        identity: int | None = None,
    ) -> None:
        """Cache ``slate`` for this exact request (replaces any prior)."""
        payload = self._full_key(user_id, items, scores, tenant, identity)
        bucket_key = self._bucket_key(user_id, tenant, payload)
        entry = _Entry(np.array(slate, copy=True), self._clock())
        with self._lock:
            chain = self._buckets.get(bucket_key)
            if chain is None:
                chain = self._buckets[bucket_key] = []
                self._by_user.setdefault((tenant, user_id), set()).add(bucket_key)
            else:
                chain[:] = [(k, e) for k, e in chain if k != payload]
            chain.append((payload, entry))
            self._buckets.move_to_end(bucket_key)
            while len(self._buckets) > self.capacity:
                evicted_key = next(iter(self._buckets))
                self._drop_bucket(evicted_key)
                self._count("evictions")
            self._publish_size()

    def invalidate_user(self, user_id: int, tenant: str = "default") -> int:
        """Drop every slate built from ``user_id``'s history, under any identity."""
        with self._lock:
            keys = self._by_user.pop((tenant, user_id), set())
            for bucket_key in keys:
                self._buckets.pop(bucket_key, None)
            if keys:
                self._count("invalidations", len(keys))
                self._publish_size()
            return len(keys)

    def clear(self, tenant: str | None = None) -> None:
        """Drop everything (or one tenant's entries) — e.g. on model swap."""
        with self._lock:
            if tenant is None:
                self._buckets.clear()
                self._by_user.clear()
            else:
                doomed = [k for k in self._buckets if k[0] == tenant]
                for bucket_key in doomed:
                    del self._buckets[bucket_key]
                for user_key in [u for u in self._by_user if u[0] == tenant]:
                    del self._by_user[user_key]
            self._publish_size()

    # -- introspection -------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return sum(len(chain) for chain in self._buckets.values())

    def hit_rate(self) -> float:
        """Lifetime hit fraction from the registry counters (0 when cold)."""
        registry = get_registry()
        hits = registry.counter("serve.cache.hits").value
        misses = registry.counter("serve.cache.misses").value
        total = hits + misses
        return hits / total if total else 0.0

    # -- internals (lock held) -----------------------------------------
    def _drop_bucket(self, bucket_key: tuple) -> None:
        self._buckets.pop(bucket_key, None)
        user_key = (bucket_key[0], bucket_key[1])
        keys = self._by_user.get(user_key)
        if keys is not None:
            keys.discard(bucket_key)
            if not keys:
                del self._by_user[user_key]

    @staticmethod
    def _count(event: str, amount: int = 1) -> None:
        get_registry().counter(f"serve.cache.{event}").inc(amount)

    def _publish_size(self) -> None:
        get_registry().gauge("serve.cache.size").set(len(self._buckets))
