"""Smoke-test wiring for ``benchmarks/bench_obs_overhead.py`` (obs v2).

Runs the microbenchmark's machinery at reduced scale and checks structure
only — no wall-clock assertions, so the suite stays deterministic on busy
machines.  The real <5% overhead gates run via
``python benchmarks/bench_obs_overhead.py``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs.autograd import is_op_profiler_enabled
from repro.obs.profiler import get_profiler

_BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(_BENCH_DIR))  # for its `from bench_utils import ...`
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_obs_overhead", _BENCH_DIR / "bench_obs_overhead.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(_BENCH_DIR))


def test_cycle_obs_leaves_everything_off(bench):
    before = bench.raw_ops()
    bench._cycle_obs()
    assert not is_op_profiler_enabled()
    assert bench.raw_ops() == before
    profiler = get_profiler()
    assert profiler is None or not profiler.running


@pytest.mark.bench
@pytest.mark.slow
def test_measure_reports_structure_and_restores_state(bench, monkeypatch, tmp_path):
    before = bench.raw_ops()
    result = bench.measure()
    assert set(result) == {
        "train_baseline_ms_per_batch",
        "train_disabled_ms_per_batch",
        "train_disabled_overhead_fraction",
        "rerank_baseline_ms_per_request",
        "rerank_disabled_ms_per_request",
        "rerank_disabled_overhead_fraction",
        "infer_baseline_ms_per_request",
        "infer_disabled_ms_per_request",
        "infer_disabled_overhead_fraction",
    }
    assert result["train_baseline_ms_per_batch"] > 0.0
    assert result["rerank_baseline_ms_per_request"] > 0.0
    assert result["infer_baseline_ms_per_request"] > 0.0
    assert np.isfinite(result["train_disabled_overhead_fraction"])
    assert np.isfinite(result["rerank_disabled_overhead_fraction"])
    assert np.isfinite(result["infer_disabled_overhead_fraction"])
    # The bench must leave every opt-in surface off for the rest of the suite.
    assert not is_op_profiler_enabled()
    assert bench.raw_ops() == before


def test_budget_constant_is_five_percent(bench):
    assert bench.MAX_DISABLED_OVERHEAD == pytest.approx(0.05)
