"""Tests for the metrics registry: quantiles, labels, cardinality, reset."""

from __future__ import annotations

import random
import threading
from bisect import insort

import pytest

from repro.obs import MetricsRegistry, get_registry, reset_registry
from repro.obs.metrics import Histogram, _interpolate


class _InsortReservoir:
    """Reference: a reservoir kept sorted on insert, halved at the cap."""

    def __init__(self, max_samples: int) -> None:
        self.max_samples = max_samples
        self.samples: list[float] = []

    def observe(self, value: float) -> None:
        if len(self.samples) >= self.max_samples:
            self.samples = self.samples[::2]
        insort(self.samples, float(value))


def _parity_sequences(rng: random.Random, n: int) -> dict[str, list[float]]:
    noise = [rng.gauss(0.0, 1.0) for _ in range(n)]
    return {
        "random": noise,
        "ascending": sorted(noise),
        "descending": sorted(noise, reverse=True),
        "ties": [rng.choice([-0.0, 0.0, 1.0, -1.0, 2.5]) for _ in range(n)],
        "signed_zeros": [rng.choice([-0.0, 0.0]) for _ in range(n)],
    }


class TestCounter:
    def test_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("events")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MetricsRegistry().counter("events").inc(-1)

    def test_thread_safety_exact_total(self):
        counter = MetricsRegistry().counter("events")

        def work():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


class TestGauge:
    def test_set_and_adjust(self):
        gauge = MetricsRegistry().gauge("loss")
        gauge.set(0.5)
        assert gauge.value == 0.5
        gauge.inc(0.25)
        assert gauge.value == pytest.approx(0.75)


class TestHistogram:
    def test_quantiles_uniform(self):
        hist = Histogram("t")
        for v in range(101):  # 0..100
            hist.observe(v)
        assert hist.p50 == pytest.approx(50.0)
        assert hist.p95 == pytest.approx(95.0)
        assert hist.p99 == pytest.approx(99.0)
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(1.0) == 100.0

    def test_quantile_interpolates(self):
        hist = Histogram("t")
        hist.observe(0.0)
        hist.observe(10.0)
        assert hist.p50 == pytest.approx(5.0)

    def test_mean_count_sum(self):
        hist = Histogram("t")
        hist.observe(1.0)
        hist.observe(3.0)
        assert hist.count == 2
        assert hist.sum == pytest.approx(4.0)
        assert hist.mean == pytest.approx(2.0)

    def test_empty(self):
        hist = Histogram("t")
        assert hist.p95 == 0.0
        assert hist.mean == 0.0

    def test_invalid_quantile(self):
        with pytest.raises(ValueError):
            Histogram("t").quantile(1.5)

    def test_max_samples_downsamples_but_keeps_exact_count(self):
        hist = Histogram("t", max_samples=64)
        values = list(range(1000))
        random.Random(0).shuffle(values)
        for v in values:
            hist.observe(float(v))
        assert hist.count == 1000
        assert hist.sum == pytest.approx(sum(range(1000)))
        assert len(hist._samples) <= 64
        # Quantiles stay approximately right after reservoir halving
        # (every-other decimation of the sorted list is quantile-neutral
        # for randomly ordered arrivals; monotone arrivals skew recent).
        assert hist.p50 == pytest.approx(500.0, rel=0.25)

    @pytest.mark.parametrize("max_samples", [1, 7, 64])
    def test_quantiles_bitwise_equal_insort_reservoir(self, max_samples):
        """Appending and sorting on read gives bitwise the quantiles of a
        reservoir kept sorted on insert, with reads between observes."""
        rng = random.Random(max_samples)
        grid = [i / 40 for i in range(41)] + [0.95, 0.99]
        for kind, values in _parity_sequences(rng, 500).items():
            hist = Histogram("t", max_samples=max_samples)
            reference = _InsortReservoir(max_samples)
            for i, value in enumerate(values):
                hist.observe(value)
                reference.observe(value)
                if rng.random() < 0.05 or i == len(values) - 1:
                    for q in grid:
                        want = _interpolate(reference.samples, q)
                        assert hist.quantile(q).hex() == want.hex(), (kind, i, q)
                    snapshot = hist.snapshot()
                    for field, q in (("p50", 0.5), ("p95", 0.95), ("p99", 0.99)):
                        want = _interpolate(reference.samples, q)
                        assert snapshot[field].hex() == want.hex(), (kind, i)
                    assert [v.hex() for v in hist._samples] == [
                        v.hex() for v in reference.samples
                    ], (kind, i)


class TestRegistry:
    def test_labels_create_distinct_series(self):
        registry = MetricsRegistry()
        a = registry.counter("ops", op="add")
        b = registry.counter("ops", op="mul")
        a.inc()
        assert a is not b
        assert b.value == 0
        # Same labels (any order) return the cached series.
        assert registry.counter("ops", op="add") is a

    def test_label_cardinality_guard_routes_to_overflow(self):
        registry = MetricsRegistry(max_series_per_metric=5)
        for i in range(5):
            registry.counter("unbounded", request=i).inc()
        # Past the cap, new label sets all share one overflow series
        # instead of raising — serving code must not crash on an
        # unbounded label.
        overflow_a = registry.counter("unbounded", request=999)
        overflow_b = registry.counter("unbounded", request=12345)
        assert overflow_a is overflow_b
        overflow_a.inc()
        snapshot = {
            tuple(sorted(s["labels"].items())): s
            for s in registry.collect()
            if s["name"] == "unbounded"
        }
        assert snapshot[(("overflow", "true"),)]["value"] == 1
        # The drop is itself counted, labeled by the offending metric.
        dropped = registry.counter("obs.dropped_series", metric="unbounded")
        assert dropped.value == 2
        # Existing (pre-cap) series keep resolving to their own series.
        assert registry.counter("unbounded", request=0).value == 1

    def test_cardinality_overflow_logs_once(self, caplog):
        import logging

        registry = MetricsRegistry(max_series_per_metric=2)
        with caplog.at_level(logging.WARNING, logger="repro.obs.metrics"):
            for i in range(10):
                registry.counter("noisy", request=i)
        warnings = [
            r for r in caplog.records if "max_series_per_metric" in r.message
        ]
        assert len(warnings) == 1

    def test_kind_conflict_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_collect_snapshot(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g", model="rapid").set(1.5)
        registry.histogram("h").observe(3.0)
        snapshot = {s["name"]: s for s in registry.collect()}
        assert snapshot["c"]["value"] == 2
        assert snapshot["g"]["labels"] == {"model": "rapid"}
        assert snapshot["h"]["count"] == 1
        assert snapshot["h"]["p95"] == pytest.approx(3.0)

    def test_reset(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.reset()
        assert len(registry) == 0
        assert registry.counter("c").value == 0

    def test_label_order_and_spelling_share_one_series(self):
        registry = MetricsRegistry()
        series = registry.counter("ops", a="1", b="2")
        for _ in range(2):  # the second round is answered by the table
            assert registry.counter("ops", a="1", b="2") is series
            assert registry.counter("ops", b="2", a="1") is series
        spelled = registry.counter("req", tenant="1")
        for _ in range(2):
            assert registry.counter("req", tenant=1) is spelled
            assert registry.counter("req", tenant="1") is spelled
        assert len(registry) == 2

    def test_equal_keys_with_different_spellings_stay_distinct(self):
        """1, 1.0 and True are equal dict keys but name three series."""
        registry = MetricsRegistry()
        one = registry.counter("c", v=1)
        for _ in range(2):
            assert registry.counter("c", v=1.0) is not one
            assert registry.counter("c", v=True) is not one
            assert registry.counter("c", v=True) is not registry.counter("c", v=1.0)
        assert len(registry) == 3

    def test_reset_returns_fresh_series(self):
        registry = MetricsRegistry()
        old = registry.counter("c", tenant="a")
        old.inc()
        assert registry.counter("c", tenant="a") is old
        registry.reset()
        fresh = registry.counter("c", tenant="a")
        assert fresh is not old
        assert fresh.value == 0
        assert registry.counter("c", tenant="a") is fresh

    def test_every_overflow_update_is_counted(self):
        registry = MetricsRegistry(max_series_per_metric=2)
        registry.counter("unbounded", request="0").inc()
        registry.counter("unbounded", request="1").inc()
        updates = 0
        for i in range(2, 12):
            registry.counter("unbounded", request=str(i)).inc()
            updates += 1
        for _ in range(5):  # one unseen label set, asked for again and again
            registry.counter("unbounded", request="999").inc()
            updates += 1
        dropped = registry.counter("obs.dropped_series", metric="unbounded")
        assert dropped.value == updates
        overflow = registry.counter("unbounded", overflow="true")
        assert overflow.value == updates

    def test_kind_conflict_rejected_after_cached_lookup(self):
        registry = MetricsRegistry()
        registry.counter("x", tenant="a")
        registry.counter("x", tenant="a")
        with pytest.raises(ValueError, match="already registered"):
            registry.histogram("x", tenant="a")

    def test_unhashable_label_value(self):
        registry = MetricsRegistry()
        series = registry.counter("c", tags=[1, 2])
        series.inc()
        assert registry.counter("c", tags=[1, 2]) is series
        assert series.label_dict == {"tags": "[1, 2]"}

    def test_concurrent_lookups_share_one_series(self):
        registry = MetricsRegistry()
        start = threading.Barrier(8)

        def work():
            start.wait()
            for _ in range(1000):
                registry.counter("events", tenant="a", source="cache").inc()

        threads = [threading.Thread(target=work) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(registry) == 1
        assert registry.counter("events", tenant="a", source="cache").value == 8000

    def test_global_registry_roundtrip(self):
        reset_registry()
        get_registry().counter("test.global").inc()
        assert get_registry().counter("test.global").value == 1
        reset_registry()
        assert get_registry().counter("test.global").value == 0
