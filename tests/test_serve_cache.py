"""Slate-cache tests: brute-force oracle, full-key identity, TTL, invalidation.

The property suite drives random interleavings of get / put /
history-update / TTL-advance against an oracle that stores full keys in
a plain dict with timestamps — no recency order, no capacity — and asserts the
cache agrees on every lookup (capacity is lifted for those runs so LRU
eviction, which the oracle doesn't model, can't fire).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import get_registry
from repro.serve import ManualClock, SlateCache

pytestmark = pytest.mark.serve

TTL = 5.0


def _request(rng, user_pool=4, item_pool=30, length=4):
    user = int(rng.integers(user_pool))
    items = rng.choice(item_pool, size=length, replace=False)
    scores = np.round(rng.normal(size=length), 3)
    return user, items, scores


def _slate(rng, length=4):
    return rng.permutation(length)


class TestBasics:
    def test_put_get_round_trip_and_copy_isolation(self):
        clock = ManualClock()
        cache = SlateCache(clock=clock)
        items = np.array([3, 1, 2])
        scores = np.array([0.3, 0.1, 0.2])
        slate = np.array([2, 0, 1])
        cache.put(7, items, scores, slate)
        out = cache.get(7, items, scores)
        np.testing.assert_array_equal(out, slate)
        out[0] = 99  # the caller cannot corrupt the cached copy
        np.testing.assert_array_equal(cache.get(7, items, scores), slate)

    def test_identity_is_the_full_request(self):
        """User, candidates, scores, and tenant each distinguish entries."""
        clock = ManualClock()
        cache = SlateCache(clock=clock)
        items = np.array([3, 1, 2])
        scores = np.array([0.3, 0.1, 0.2])
        cache.put(7, items, scores, np.array([0, 1, 2]))
        assert cache.get(8, items, scores) is None  # other user
        assert cache.get(7, items[::-1], scores) is None  # other candidates
        assert cache.get(7, items, scores + 1.0) is None  # other scores
        assert cache.get(7, items, scores, tenant="b") is None  # other tenant
        assert cache.get(7, items, scores) is not None

    def test_ttl_expiry_on_manual_clock(self):
        clock = ManualClock()
        cache = SlateCache(ttl_s=TTL, clock=clock)
        items, scores = np.array([1, 2]), np.array([0.1, 0.2])
        cache.put(0, items, scores, np.array([1, 0]))
        clock.advance(TTL - 0.001)
        assert cache.get(0, items, scores) is not None
        clock.advance(0.001)  # a put refreshes stored_at, so re-store first
        cache.put(0, items, scores, np.array([1, 0]))
        clock.advance(TTL)
        assert cache.get(0, items, scores) is None
        assert get_registry().counter("serve.cache.expired").value >= 1

    def test_lru_eviction_prefers_stale_buckets(self):
        clock = ManualClock()
        cache = SlateCache(capacity=2, ttl_s=None, clock=clock)
        a = (0, np.array([1, 2]), np.array([0.1, 0.2]))
        b = (1, np.array([3, 4]), np.array([0.3, 0.4]))
        c = (2, np.array([5, 6]), np.array([0.5, 0.6]))
        slate = np.array([0, 1])
        cache.put(*a, slate)
        cache.put(*b, slate)
        assert cache.get(*a) is not None  # refresh a's recency
        cache.put(*c, slate)  # evicts b, the least recently used
        assert cache.get(*b) is None
        assert cache.get(*a) is not None and cache.get(*c) is not None

    def test_invalidate_user_drops_only_that_user(self):
        clock = ManualClock()
        cache = SlateCache(clock=clock)
        items, scores = np.array([1, 2]), np.array([0.1, 0.2])
        other = np.array([3, 4])
        cache.put(0, items, scores, np.array([0, 1]))
        cache.put(0, other, scores, np.array([1, 0]))
        cache.put(1, items, scores, np.array([0, 1]))
        assert cache.invalidate_user(0) == 2
        assert cache.get(0, items, scores) is None
        assert cache.get(0, other, scores) is None
        assert cache.get(1, items, scores) is not None
        assert cache.invalidate_user(0) == 0  # idempotent

    def test_clear_by_tenant(self):
        clock = ManualClock()
        cache = SlateCache(clock=clock)
        items, scores = np.array([1, 2]), np.array([0.1, 0.2])
        cache.put(0, items, scores, np.array([0, 1]), tenant="a")
        cache.put(0, items, scores, np.array([1, 0]), tenant="b")
        cache.clear(tenant="a")
        assert cache.get(0, items, scores, tenant="a") is None
        np.testing.assert_array_equal(
            cache.get(0, items, scores, tenant="b"), [1, 0]
        )
        cache.clear()
        assert len(cache) == 0


@st.composite
def interleavings(draw):
    """A seeded script of cache operations."""
    ops = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["put", "get", "invalidate", "advance"]),
                st.integers(min_value=0, max_value=2**32 - 1),
            ),
            min_size=1,
            max_size=60,
        )
    )
    return ops


class TestOracleProperty:
    @given(interleavings())
    @settings(max_examples=60, deadline=None)
    def test_random_interleavings_match_bruteforce_oracle(self, ops):
        clock = ManualClock()
        # Capacity lifted: the oracle doesn't model LRU eviction.
        cache = SlateCache(capacity=10_000, ttl_s=TTL, clock=clock)
        oracle: dict = {}  # full key bytes -> (slate, stored_at)

        for op, raw_seed in ops:
            rng = np.random.default_rng(raw_seed)
            user, items, scores = _request(rng)
            key = SlateCache._full_key(user, items, scores, "default")
            if op == "put":
                slate = _slate(rng)
                cache.put(user, items, scores, slate)
                oracle[key] = (slate.copy(), clock.now)
            elif op == "get":
                expected = oracle.get(key)
                if expected is not None and clock.now - expected[1] >= TTL:
                    del oracle[key]
                    expected = None
                got = cache.get(user, items, scores)
                if expected is None:
                    assert got is None
                else:
                    np.testing.assert_array_equal(got, expected[0])
            elif op == "invalidate":
                cache.invalidate_user(user)
                prefix = f"default\x00{user}\x00".encode()
                for stale in [k for k in oracle if k.startswith(prefix)]:
                    del oracle[stale]
            elif op == "advance":
                clock.advance(float(rng.uniform(0.0, TTL / 2)))
