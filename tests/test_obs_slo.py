"""SLO burn-rate monitor tests: math, transitions, telemetry, serving wiring."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import RankingRequest, build_batch
from repro.obs.metrics import MetricsRegistry
from repro.obs.runlog import MemorySink, RunLogger
from repro.obs.slo import (
    DEFAULT_BURN_WINDOWS,
    SLO,
    BurnWindow,
    SLOMonitor,
    SLO_STATE_CODES,
    _WindowCounts,
    serving_slo,
)
from repro.rerank import MMRReranker
from repro.resilience.degrade import ResilientReranker


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _monitor(
    target: float = 0.99,
    min_events: int = 1,
    latency_threshold_ms: float | None = None,
    **kwargs,
) -> tuple[SLOMonitor, FakeClock, MetricsRegistry, MemorySink]:
    clock = FakeClock()
    registry = MetricsRegistry()
    sink = MemorySink()
    monitor = SLOMonitor(
        SLO(
            name="t",
            target=target,
            latency_threshold_ms=latency_threshold_ms,
        ),
        min_events=min_events,
        clock=clock,
        registry=registry,
        logger=RunLogger(sink),
        **kwargs,
    )
    return monitor, clock, registry, sink


class TestDeclarations:
    def test_target_must_be_a_fraction(self):
        with pytest.raises(ValueError):
            SLO(name="x", target=1.0)
        with pytest.raises(ValueError):
            SLO(name="x", target=0.0)
        assert SLO(name="x", target=0.999).error_budget == pytest.approx(0.001)

    def test_burn_window_validation(self):
        with pytest.raises(ValueError):
            BurnWindow(severity="ok", long_s=300, short_s=60, max_burn_rate=1.0)
        with pytest.raises(ValueError):
            BurnWindow(severity="page", long_s=60, short_s=60, max_burn_rate=1.0)

    def test_monitor_requires_windows(self):
        with pytest.raises(ValueError):
            SLOMonitor(SLO(name="x"), burn_windows=())


class TestBurnRateMath:
    def test_burn_rate_is_bad_fraction_over_budget(self):
        monitor, _, _, _ = _monitor(target=0.99)
        for _ in range(98):
            monitor.record()
        for _ in range(2):
            monitor.record(error=True)
        # 2% bad against a 1% budget burns at 2x, in every window.
        for window_s in (60.0, 300.0, 1800.0):
            assert monitor.bad_fraction(window_s) == pytest.approx(0.02)
            assert monitor.burn_rate(window_s) == pytest.approx(2.0)

    def test_min_events_guards_cold_windows(self):
        monitor, _, _, _ = _monitor(min_events=20)
        monitor.record(error=True)  # 100% bad but only 1 event
        assert monitor.bad_fraction(300.0) == 0.0
        assert monitor.evaluate().state == "ok"

    def test_latency_threshold_classifies_slow_requests_bad(self):
        monitor, _, _, _ = _monitor(latency_threshold_ms=50.0)
        monitor.record(latency_ms=10.0)
        monitor.record(latency_ms=80.0)
        assert monitor.bad_fraction(300.0) == pytest.approx(0.5)

    def test_old_outcomes_age_out(self):
        monitor, clock, _, _ = _monitor()
        for _ in range(10):
            monitor.record(error=True)
        assert monitor.burn_rate(60.0) > 0.0
        clock.advance(70.0)  # past the short window (+ its bucket span)
        assert monitor.burn_rate(60.0) == 0.0
        assert monitor.burn_rate(1800.0) > 0.0  # still inside the long one

    def test_window_counts_drop_expired_sub_windows(self):
        clock = FakeClock()
        counts = _WindowCounts(10.0, clock, buckets=5)
        for _ in range(4):
            counts.add(bad=False)
        counts.add(bad=True)
        assert counts.totals() == (4.0, 1.0)
        clock.advance(12.5)  # window + one sub-window span: expired
        counts.add(bad=True)
        counts.add(bad=False)
        assert counts.totals() == (1.0, 1.0)


class TestTransitions:
    def test_page_requires_both_windows_then_resolves(self):
        monitor, clock, registry, sink = _monitor(target=0.99)
        state_gauge = registry.gauge("obs.slo.state", slo="t")

        # Hard outage: 100% bad burns at 100x in both page windows.
        for _ in range(30):
            monitor.record(error=True)
            clock.advance(1.0)
        status = monitor.evaluate()
        assert status.state == "page"
        assert state_gauge.value == SLO_STATE_CODES["page"]
        alerts = sink.events("slo.alert")
        assert len(alerts) == 1
        assert alerts[0]["severity"] == "page"
        assert alerts[0]["burn_rate_long"] > 14.4

        # Recovery: the page rule's 60s confirmation window clears first;
        # once it does, paging stops even though the 300s signal window is
        # still hot — that is the whole point of the short confirmation.
        # The warn rule (1800s/300s) is still burning, so state demotes to
        # warn rather than jumping straight to ok.
        clock.advance(70.0)
        assert monitor.burn_rate(60.0) == 0.0
        assert monitor.burn_rate(300.0) > 14.4
        status = monitor.evaluate()
        assert status.state == "warn"
        assert state_gauge.value == SLO_STATE_CODES["warn"]
        assert sink.events("slo.alert")[-1]["severity"] == "warn"

        # Once the warn rule's 300s confirmation window clears too, the
        # monitor resolves even with the 1800s window still full of bads.
        clock.advance(300.0)
        assert monitor.burn_rate(300.0) == 0.0
        assert monitor.burn_rate(1800.0) > 6.0
        status = monitor.evaluate()
        assert status.state == "ok"
        assert state_gauge.value == SLO_STATE_CODES["ok"]
        assert len(sink.events("slo.resolve")) == 1

    def test_no_duplicate_alerts_while_state_holds(self):
        monitor, clock, _, sink = _monitor()
        for _ in range(30):
            monitor.record(error=True)
            clock.advance(1.0)
        monitor.evaluate()
        monitor.evaluate()
        monitor.evaluate()
        assert len(sink.events("slo.alert")) == 1

    def test_burn_rate_gauges_published_per_window(self):
        monitor, clock, registry, _ = _monitor()
        for _ in range(10):
            monitor.record()
            clock.advance(1.0)
        monitor.evaluate()
        windows = {
            s["labels"]["window"]
            for s in registry.collect()
            if s["name"] == "obs.slo.burn_rate"
        }
        expected = {
            f"{w:g}s"
            for rule in DEFAULT_BURN_WINDOWS
            for w in (rule.long_s, rule.short_s)
        }
        assert windows == expected


class TestServingWiring:
    def test_serving_slo_defaults(self):
        monitor = serving_slo()
        assert monitor.slo.latency_threshold_ms == 50.0
        assert monitor.min_events == 20
        assert monitor.slo.target == pytest.approx(0.99)

    def test_resilient_reranker_records_into_monitor(self, taobao_world):
        world = taobao_world
        histories = world.sample_histories()
        rng = np.random.default_rng(0)
        requests = [
            RankingRequest(
                int(rng.integers(world.config.num_users)),
                rng.choice(world.config.num_items, size=8, replace=False),
                rng.normal(size=8),
            )
            for _ in range(4)
        ]
        batch = build_batch(requests, world.catalog, world.population, histories)
        monitor, _, registry, _ = _monitor(
            latency_threshold_ms=10_000.0, min_events=1
        )
        wrapped = ResilientReranker(
            MMRReranker(), fallbacks=[], deadline_ms=None, slo_monitor=monitor
        )
        result = wrapped.rerank(batch)
        assert isinstance(result, np.ndarray)
        # One healthy primary-served request: recorded good + evaluated.
        good, bad = monitor._window_counts(300.0)
        assert (good, bad) == (1.0, 0.0)
        assert monitor.state == "ok"
        states = [
            s for s in registry.collect() if s["name"] == "obs.slo.state"
        ]
        assert states and states[0]["value"] == SLO_STATE_CODES["ok"]
