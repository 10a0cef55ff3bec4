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
  computed from, so every cache identity aliasing that user (Zipfian
  workloads map many virtual users onto one feature user) goes too;
- ``clear`` — the model changed (``ResilientReranker.swap_primary``
  swaps weights mid-flight; the service clears the tenant's slates).

The key is the request identity itself, packed into canonical bytes
(tenant, feature user, identity, candidate ids, initial scores): one
``OrderedDict`` maps it to the entry, so Python's own hashing and
equality do the lookup and two distinct requests can never share a slot.

Eviction is LRU over entries (a hit refreshes recency); expiry is TTL
against an injectable clock, so tests advance a
:class:`~repro.serve.clock.ManualClock` instead of sleeping.  Telemetry:
``serve.cache.{hits,misses,expired,evictions,invalidations}`` counters
and the ``serve.cache.size`` gauge.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable

import numpy as np

from ..obs import get_registry

__all__ = ["SlateCache"]


class _Entry:
    __slots__ = ("slate", "stored_at", "user_key")

    def __init__(self, slate: np.ndarray, stored_at: float, user_key: tuple) -> None:
        self.slate = slate
        self.stored_at = stored_at
        self.user_key = user_key


class SlateCache:
    """Bounded TTL cache mapping request identity → served permutation.

    Parameters
    ----------
    capacity:
        Maximum number of slates kept (LRU eviction beyond it).
    ttl_s:
        Entry lifetime in seconds; ``None`` disables expiry.
    clock:
        Monotonic-seconds callable (injectable for tests).
    """

    def __init__(
        self,
        capacity: int = 4096,
        ttl_s: float | None = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if ttl_s is not None and ttl_s <= 0:
            raise ValueError("ttl_s must be positive (or None to disable)")
        self.capacity = capacity
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        self._entries: "OrderedDict[bytes, _Entry]" = OrderedDict()
        # (tenant, feature user) -> full keys, for invalidation on
        # history update
        self._by_user: dict[tuple, set[bytes]] = {}

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
        key = self._full_key(user_id, items, scores, tenant, identity)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._count("misses")
                return None
            if self.ttl_s is not None and self._clock() - entry.stored_at >= self.ttl_s:
                self._drop(key)
                self._count("expired")
                self._count("misses")
                return None
            self._entries.move_to_end(key)
            self._count("hits")
            return entry.slate.copy()

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
        key = self._full_key(user_id, items, scores, tenant, identity)
        user_key = (tenant, user_id)
        entry = _Entry(np.array(slate, copy=True), self._clock(), user_key)
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            self._by_user.setdefault(user_key, set()).add(key)
            while len(self._entries) > self.capacity:
                self._drop(next(iter(self._entries)))
                self._count("evictions")
            self._publish_size()

    def invalidate_user(self, user_id: int, tenant: str = "default") -> int:
        """Drop every slate built from ``user_id``'s history, under any identity."""
        with self._lock:
            keys = self._by_user.pop((tenant, user_id), set())
            for key in keys:
                del self._entries[key]
            if keys:
                self._count("invalidations", len(keys))
                self._publish_size()
            return len(keys)

    def clear(self, tenant: str | None = None) -> None:
        """Drop everything (or one tenant's entries) — e.g. on model swap."""
        with self._lock:
            if tenant is None:
                self._entries.clear()
                self._by_user.clear()
            else:
                for user_key in [u for u in self._by_user if u[0] == tenant]:
                    for key in self._by_user.pop(user_key):
                        del self._entries[key]
            self._publish_size()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # -- internals (lock held) -----------------------------------------
    def _drop(self, key: bytes) -> None:
        entry = self._entries.pop(key)
        keys = self._by_user[entry.user_key]
        keys.discard(key)
        if not keys:
            del self._by_user[entry.user_key]

    @staticmethod
    def _count(event: str, amount: int = 1) -> None:
        get_registry().counter(f"serve.cache.{event}").inc(amount)

    def _publish_size(self) -> None:
        get_registry().gauge("serve.cache.size").set(len(self._entries))
