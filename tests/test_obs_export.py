"""Exporter tests: OpenMetrics exposition (golden) and JSON snapshots."""

from __future__ import annotations

import json
import time

import pytest

from repro.obs.export import (
    SnapshotExporter,
    render_openmetrics,
    write_openmetrics,
    write_snapshot,
)
from repro.obs.metrics import MetricsRegistry


class FakeClock:
    def __init__(self, start: float = 1000.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _populated_registry() -> MetricsRegistry:
    """A registry with every metric kind, on injected clocks: byte-stable."""
    fake = FakeClock(1000.0)
    registry = MetricsRegistry()
    registry.counter("train.batches").inc(3)
    registry.counter("rerank.requests", reranker="mmr").inc(7)
    registry.gauge("obs.slo.state", slo="rerank-latency").set(2)
    # One histogram renders two families from the same samples: the
    # lifetime summary and the ``_window`` summary.
    hist = registry.histogram("rerank.latency_ms", reranker="mmr")
    hist._ring.clock = fake
    for value in (1.0, 2.0, 3.0, 4.0):
        hist.observe(value)
    fake.advance(10.0)  # window samples all stay live
    return registry


class TestRenderOpenmetrics:
    def test_golden_exposition(self, golden_store):
        text = render_openmetrics(_populated_registry())
        golden_store.check("obs_openmetrics", {"lines": text.splitlines()})

    def test_counter_total_suffix_and_eof(self):
        registry = MetricsRegistry()
        registry.counter("a.b").inc()
        text = render_openmetrics(registry)
        assert "# TYPE a_b counter" in text
        assert "a_b_total 1" in text
        assert text.endswith("# EOF\n")

    def test_name_sanitization(self):
        registry = MetricsRegistry()
        registry.gauge("0weird.name-x").set(1.0)
        text = render_openmetrics(registry)
        assert "_0weird_name_x 1" in text

    def test_label_value_escaping(self):
        registry = MetricsRegistry()
        registry.gauge("g", path='a"b\\c\nd').set(1.0)
        text = render_openmetrics(registry)
        assert 'path="a\\"b\\\\c\\nd"' in text

    def test_histogram_renders_as_summary_with_quantiles(self):
        registry = MetricsRegistry()
        hist = registry.histogram("lat.ms")
        for value in (1.0, 2.0, 3.0):
            hist.observe(value)
        text = render_openmetrics(registry)
        assert "# TYPE lat_ms summary" in text
        assert 'lat_ms{quantile="0.5"} 2' in text
        assert "lat_ms_sum 6" in text
        assert "lat_ms_count 3" in text

    def test_windowed_family_carries_window_label(self):
        registry = MetricsRegistry()
        registry.histogram("lat.ms").observe(1.0)
        text = render_openmetrics(registry)
        assert "# TYPE lat_ms summary" in text
        assert "# TYPE lat_ms_window summary" in text
        assert 'lat_ms_window_count{window="60s"} 1' in text


class TestSnapshots:
    def test_write_openmetrics_atomic_file(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        path = write_openmetrics(tmp_path / "metrics.prom", registry)
        assert path.read_text().endswith("# EOF\n")

    def test_write_snapshot_payload(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        path = write_snapshot(tmp_path / "m.json", registry, extra={"run": "x"})
        payload = json.loads(path.read_text())
        assert payload["run"] == "x"
        assert payload["ts"] > 0
        assert payload["metrics"] == registry.collect()

    def test_snapshot_exporter_writes_periodically_and_on_stop(self, tmp_path):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        exporter = SnapshotExporter(
            tmp_path / "m.json", interval_s=0.02, registry=registry
        )
        with exporter:
            deadline = time.monotonic() + 2.0
            while exporter.writes == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
        assert exporter.writes >= 2  # at least one periodic + the final write
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["metrics"][0]["name"] == "c"

    def test_snapshot_exporter_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotExporter(tmp_path / "m.json", interval_s=0.0)


class TestSnapshotExporterMultiProcess:
    """Mirrors JsonlSink's ownership contract: refuse or fan out per pid."""

    def test_foreign_pid_write_is_refused_without_per_pid(self, tmp_path):
        exporter = SnapshotExporter(
            tmp_path / "metrics.json", interval_s=60.0, registry=MetricsRegistry()
        )
        exporter._owner_pid += 1  # what a forked child would observe
        with pytest.raises(RuntimeError, match="per_pid=True"):
            exporter._write()

    def test_per_pid_exporter_rebinds_to_its_own_file(self, tmp_path):
        import os

        from repro.obs.runlog import per_pid_path

        registry = MetricsRegistry()
        registry.counter("dist.steps").inc(5)
        exporter = SnapshotExporter(
            tmp_path / "metrics.json",
            interval_s=60.0,
            registry=registry,
            per_pid=True,
        )
        assert exporter.path == per_pid_path(tmp_path / "metrics.json")
        exporter._owner_pid -= 1  # simulate inheriting across a fork
        exporter._write()  # rebinds instead of raising
        assert exporter._owner_pid == os.getpid()
        assert exporter.path == per_pid_path(tmp_path / "metrics.json")
        snapshot = json.loads(exporter.path.read_text())
        assert any(m["name"] == "dist.steps" for m in snapshot["metrics"])
