"""Instrumented training/eval: event sequences, spans, profiler, latency."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.rapid import RapidConfig, make_rapid_variant
from repro.core.trainer import TrainConfig, train_rapid
from repro.eval import ExperimentConfig, evaluate_reranker, prepare_bundle
from repro.obs import (
    MemorySink,
    RunLogger,
    Tracer,
    get_registry,
    get_tracer,
    observed_run,
    op_stats,
    profile_ops,
    reset_registry,
    reset_tracer,
    set_run_logger,
)
from repro.obs.report import render_report


@pytest.fixture(scope="module")
def obs_bundle():
    config = ExperimentConfig(
        dataset="taobao",
        scale="tiny",
        list_length=8,
        num_train_requests=40,
        num_test_requests=10,
        ranker_interactions=300,
        hidden=4,
        train=TrainConfig(epochs=2, batch_size=16),
        seed=0,
    )
    return prepare_bundle(config)


def _make_model(bundle):
    rapid_config = RapidConfig(
        user_dim=bundle.world.population.feature_dim,
        item_dim=bundle.world.catalog.feature_dim,
        num_topics=bundle.world.catalog.num_topics,
        hidden=4,
        seed=0,
    )
    return make_rapid_variant("rapid-det", rapid_config)


def _train(bundle, logger=None, **kwargs):
    return train_rapid(
        _make_model(bundle),
        bundle.train_requests,
        bundle.world.catalog,
        bundle.world.population,
        bundle.histories,
        config=bundle.config.train,
        run_logger=logger,
        **kwargs,
    )


class TestTrainerEvents:
    def test_two_epoch_event_sequence(self, obs_bundle):
        sink = MemorySink()
        losses = _train(obs_bundle, RunLogger(sink, run_id="test-run"))

        events = [r["event"] for r in sink.records]
        assert events[0] == "train.start"
        assert events[-1] == "train.end"
        assert events.count("train.epoch") == 2
        # Per-epoch layout: batches then the epoch summary, twice over.
        batches_per_epoch = events.count("train.batch") // 2
        assert batches_per_epoch >= 1
        expected = (
            ["train.start"]
            + (["train.batch"] * batches_per_epoch + ["train.epoch"]) * 2
            + ["train.end"]
        )
        assert events == expected

        for record in sink.records:
            assert record["run_id"] == "test-run"
            assert isinstance(record["ts"], float)

        epochs = sink.events("train.epoch")
        assert [e["epoch"] for e in epochs] == [0, 1]
        assert [e["loss"] for e in epochs] == pytest.approx(losses)
        for e in epochs:
            assert e["grad_norm"] > 0.0
            assert e["lists_per_sec"] > 0.0
            assert e["lr"] == obs_bundle.config.train.lr
        end = sink.events("train.end")[0]
        assert end["epochs_run"] == 2
        assert end["final_loss"] == pytest.approx(losses[-1])

    def test_batch_events_carry_loss_and_latency(self, obs_bundle):
        sink = MemorySink()
        _train(obs_bundle, RunLogger(sink))
        for record in sink.events("train.batch"):
            assert np.isfinite(record["loss"])
            assert record["batch_ms"] > 0.0
            assert record["grad_norm"] >= 0.0

    def test_silent_by_default(self, obs_bundle):
        previous = set_run_logger(None)
        try:
            losses = _train(obs_bundle)
        finally:
            set_run_logger(previous)
        assert len(losses) == 2  # no sink, no events, training unaffected

    def test_on_epoch_end_early_stop(self, obs_bundle):
        sink = MemorySink()
        seen = []

        def stop_after_first(epoch, loss):
            seen.append((epoch, loss))
            return epoch == 0

        losses = _train(
            obs_bundle, RunLogger(sink), on_epoch_end=stop_after_first
        )
        assert len(losses) == 1
        assert seen == [(0, losses[0])]
        assert len(sink.events("train.early_stop")) == 1
        assert sink.events("train.end")[0]["epochs_run"] == 1

    def test_on_epoch_end_none_return_runs_all_epochs(self, obs_bundle):
        calls = []
        losses = _train(obs_bundle, on_epoch_end=lambda e, l: calls.append(e))
        assert len(losses) == 2
        assert calls == [0, 1]

    def test_train_spans_recorded(self, obs_bundle):
        reset_tracer()
        _train(obs_bundle)
        paths = {path for _, _, path in get_tracer().walk()}
        assert "train.run" in paths
        assert "train.run/train.epoch" in paths
        assert "train.run/train.epoch/train.batch" in paths
        reset_tracer()

    def test_train_batch_histogram_populated(self, obs_bundle):
        reset_registry()
        _train(obs_bundle)
        hist = get_registry().histogram("train.batch_ms")
        assert hist.count >= 2
        assert hist.p95 >= hist.p50 > 0.0
        reset_registry()


class TestEvalInstrumentation:
    def test_rerank_latency_histogram_uniform(self, obs_bundle):
        reset_registry()
        evaluate_reranker(None, obs_bundle)  # identity / init path
        from repro.rerank import MMRReranker

        evaluate_reranker(MMRReranker(), obs_bundle)
        registry = get_registry()
        mmr = registry.histogram("rerank.latency_ms", reranker="mmr")
        assert mmr.count == 1
        assert mmr.sum > 0.0
        gauges = {
            (s["name"], s["labels"].get("model"))
            for s in registry.collect()
            if s["kind"] == "gauge"
        }
        assert ("eval.click@5", "init") in gauges
        assert ("eval.click@5", "mmr") in gauges
        reset_registry()

    def test_eval_result_event(self, obs_bundle):
        sink = MemorySink()
        previous = set_run_logger(RunLogger(sink))
        try:
            evaluate_reranker(None, obs_bundle)
        finally:
            set_run_logger(previous)
        (result,) = sink.events("eval.result")
        assert result["model"] == "init"
        assert result["rerank_ms_per_list"] >= 0.0
        assert "click@5" in result


class TestOpProfiler:
    def test_forward_backward_counts_and_times(self):
        from repro.nn.tensor import Tensor

        with profile_ops():
            a = Tensor(np.ones((4, 4)), requires_grad=True)
            ((a @ a).relu().sum()).backward()
        stats = {row["op"]: row for row in op_stats()}
        for op in ("matmul", "relu", "sum"):
            assert stats[op]["forward_calls"] == 1
            assert stats[op]["backward_calls"] == 1
            assert stats[op]["forward_ms"] >= 0.0
            assert stats[op]["backward_ms"] >= 0.0

    def test_ops_restored_after_profiling(self):
        from repro.nn.tensor import Tensor

        with profile_ops():
            pass
        assert not hasattr(Tensor.__add__, "_obs_profiled_op")
        assert not hasattr(Tensor.__dict__["concatenate"].__func__, "_obs_profiled_op")

    def test_gradients_identical_under_profiler(self):
        from repro.nn.tensor import Tensor

        rng = np.random.default_rng(0)
        data = rng.normal(size=(5, 3))

        def run():
            t = Tensor(data, requires_grad=True)
            ((t * 2.0).sigmoid().mean()).backward()
            return t.grad.copy()

        plain = run()
        with profile_ops():
            profiled = run()
        np.testing.assert_allclose(plain, profiled)

    def test_mirrored_into_registry_as_gauges(self):
        from repro.nn.tensor import Tensor

        reset_registry()
        with profile_ops():
            (Tensor(np.ones(3), requires_grad=True).sum()).backward()
        op_stats()
        names = {s["name"] for s in get_registry().collect()}
        assert "autograd.op.forward_calls" in names
        assert "autograd.op.backward_ms" in names
        reset_registry()


class TestObservedRunReport:
    def test_run_log_reconstructs_summary(self, obs_bundle, tmp_path):
        path = tmp_path / "run.jsonl"
        with observed_run(path, run_id="e2e"):
            with profile_ops(reset=False):
                _train(obs_bundle)
            evaluate_reranker(None, obs_bundle)
        from repro.obs import read_jsonl

        records = read_jsonl(path)
        events = {r["event"] for r in records}
        assert {"train.start", "train.epoch", "span", "autograd.op",
                "metric", "eval.result"} <= events
        report = render_report(records)
        assert "Training loss curve" in report
        assert "Slowest spans" in report
        assert "Top autograd ops" in report
        assert "train.run/train.epoch" in report
        assert "Evaluation results" in report
        reset_registry()
        reset_tracer()

    def test_windowed_percentiles_from_histogram_window_fields(self, tmp_path):
        path = tmp_path / "run.jsonl"
        with observed_run(path, run_id="window"):
            hist = get_registry().histogram("serve.request_ms", tenant="a")
            for value in range(1, 101):
                hist.observe(float(value))
        from repro.obs import read_jsonl

        report = render_report(read_jsonl(path))
        assert "Windowed percentiles (recent, not lifetime)" in report
        [row] = [
            line.split()
            for line in report.splitlines()
            if line.startswith("serve.request_ms{tenant=a}")
        ]
        assert row == [
            "serve.request_ms{tenant=a}", "60s", "100", "50.500", "95.050", "99.010"
        ]
        reset_registry()
