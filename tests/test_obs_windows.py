"""Tests for the sliding-window view of registry histograms and windowed counters."""

from __future__ import annotations

import math
import sys
import threading

import numpy as np
import pytest

from repro.obs import get_registry, reset_registry
from repro.obs.metrics import BUCKET_CAP, Histogram
from repro.obs.windows import WindowedCounter, enable_windowed


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestWindowedHistogram:
    def test_quantiles_match_brute_force_oracle(self):
        clock = FakeClock()
        hist = Histogram("t", clock=clock)
        rng = np.random.default_rng(0)
        recorded: list[tuple[float, float]] = []  # (ts, value)
        for _ in range(600):
            value = float(rng.exponential(10.0))
            hist.observe(value)
            recorded.append((clock.now, value))
            clock.advance(float(rng.uniform(0.0, 0.3)))
        # Brute-force oracle with the documented sub-window granularity:
        # a sample is live while its sub-window (span = 60 s / 6) is
        # within 6 ticks of the current one, so the effective window is
        # 60..70 s depending on alignment.
        span = 60.0 / 6
        now_tick = math.floor(clock.now / span)
        live = [
            v
            for ts, v in recorded
            if now_tick - math.floor(ts / span) <= 6
        ]
        assert len(live) < len(recorded)  # the window really dropped some
        snap = hist.snapshot()
        assert snap["window_count"] == len(live)
        assert snap["window_sum"] == pytest.approx(sum(live))
        for q, field in ((0.5, "p50"), (0.95, "p95"), (0.99, "p99")):
            oracle = float(np.quantile(np.sort(live), q, method="linear"))
            assert snap[f"window_{field}"] == pytest.approx(oracle)
        # The lifetime view of the same samples is untouched by expiry.
        assert snap["count"] == len(recorded)
        assert snap["sum"] == pytest.approx(sum(v for _, v in recorded))

    def test_old_samples_expire(self):
        clock = FakeClock()
        hist = Histogram("t", clock=clock)
        for _ in range(50):
            hist.observe(100.0)
        clock.advance(70.0)  # window + one sub-window span: all expired
        snap = hist.snapshot()
        assert snap["window_count"] == 0
        assert snap["window_p95"] == 0.0
        assert snap["count"] == 50
        hist.observe(1.0)
        snap = hist.snapshot()
        assert snap["window_count"] == 1
        assert snap["window_p50"] == pytest.approx(1.0)
        assert snap["count"] == 51

    def test_partial_expiry_drops_only_old_buckets(self):
        clock = FakeClock()
        hist = Histogram("t", clock=clock)
        hist.observe(100.0)  # lands in the first sub-window
        clock.advance(36.0)
        hist.observe(1.0)  # much later sub-window
        clock.advance(36.0)  # first sub-window expired, second still live
        snap = hist.snapshot()
        assert snap["window_count"] == 1
        assert snap["window_p50"] == pytest.approx(1.0)

    def test_decimation_caps_memory_keeps_count(self):
        clock = FakeClock()
        hist = Histogram("t", clock=clock)
        total = 2 * BUCKET_CAP + 1000
        values = [float(v) for v in range(total)]
        np.random.default_rng(0).shuffle(values)
        # (Every-other decimation is quantile-neutral for randomly ordered
        # arrivals; monotone arrivals would skew recent — same caveat as
        # the lifetime reservoir.)
        for v in values:
            hist.observe(v)  # the clock never moves: one sub-window
        assert max(len(bucket) for bucket in hist._window) <= BUCKET_CAP
        snap = hist.snapshot()
        assert snap["window_count"] == total  # exact count survives decimation
        assert snap["window_sum"] == pytest.approx(sum(values))
        assert snap["window_p50"] == pytest.approx(total / 2, rel=0.3)

    def test_snapshot_shape(self):
        hist = Histogram("t")
        hist.observe(2.0)
        snap = hist.snapshot()
        assert snap["kind"] == "histogram"
        assert snap["window_s"] == 60.0
        for key in ("count", "sum", "mean", "p50", "p95", "p99"):
            assert key in snap
        for key in ("count", "sum", "p50", "p95", "p99"):
            assert f"window_{key}" in snap

    def test_windowed_and_cumulative_share_a_name(self):
        """One series per name carries both views of the same samples."""
        reset_registry()
        registry = get_registry()
        registry.histogram("shared.latency_ms").observe(1.0)
        registry.histogram("shared.latency_ms").observe(2.0)
        [snap] = [
            s for s in registry.collect() if s["name"] == "shared.latency_ms"
        ]
        assert snap["kind"] == "histogram"
        assert snap["count"] == snap["window_count"] == 2
        assert snap["p50"] == snap["window_p50"] == pytest.approx(1.5)
        reset_registry()

    def test_snapshot_views_agree_under_concurrent_writers(self):
        """Lifetime and window fields come from one lock acquisition.

        With a clock that never moves every sample stays in the window, so
        a consistent snapshot always reports ``count == window_count``; a
        snapshot that read the two under separate locks would not.
        """
        hist = Histogram("t", clock=FakeClock())
        stop = threading.Event()
        mismatches: list[tuple[int, int]] = []

        def write():
            while not stop.is_set():
                hist.observe(1.0)

        def read():
            for _ in range(300):
                snap = hist.snapshot()
                if snap["count"] != snap["window_count"]:
                    mismatches.append((snap["count"], snap["window_count"]))
                if snap["sum"] != snap["window_sum"]:
                    mismatches.append((snap["sum"], snap["window_sum"]))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        writers = [threading.Thread(target=write) for _ in range(4)]
        reader = threading.Thread(target=read)
        try:
            for thread in writers:
                thread.start()
            reader.start()
            reader.join(timeout=60.0)
        finally:
            stop.set()
            for thread in writers:
                thread.join(timeout=10.0)
            sys.setswitchinterval(previous)
        assert not reader.is_alive()
        assert not any(thread.is_alive() for thread in writers)
        assert hist.count > 0
        assert mismatches == []


class TestWindowedCounter:
    def test_total_over_window_vs_lifetime(self):
        clock = FakeClock()
        counter = WindowedCounter("c", window_s=10.0, buckets=5, clock=clock)
        counter.add(5.0)
        clock.advance(12.5)  # window + one sub-window span: expired
        counter.add(2.0)
        assert counter.total == pytest.approx(2.0)  # windowed
        assert counter.lifetime_total == pytest.approx(7.0)


def test_enable_windowed_is_a_noop():
    """The retired switch stays callable and changes nothing."""
    reset_registry()
    enable_windowed()
    assert get_registry().collect() == []
