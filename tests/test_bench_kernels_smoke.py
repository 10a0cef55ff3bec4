"""Smoke-test wiring for ``benchmarks/bench_kernels.py``.

Runs the cell and LSTM-step rows at the smallest sample count, without
publishing, so a refactor of the fused ops or of ``use_fused`` cannot leave
the kernel bench broken.  Structure only — no wall-clock assertions; the
3x acceptance bar runs via ``python benchmarks/bench_kernels.py``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

_BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"

_ROW_KEYS = {
    "op",
    "median_ms",
    "p95_ms",
    "unfused_median_ms",
    "unfused_p95_ms",
    "speedup_vs_unfused",
}


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(_BENCH_DIR))  # for its `from bench_utils import ...`
    try:
        spec = importlib.util.spec_from_file_location(
            "bench_kernels", _BENCH_DIR / "bench_kernels.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(_BENCH_DIR))


@pytest.mark.parametrize(
    "function,op",
    [
        ("bench_lstm_cell", "lstm_cell_fused"),
        ("bench_gru_cell", "gru_cell_fused"),
        ("bench_lstm_step", "lstm_step"),
    ],
)
def test_rows_run_on_both_paths(bench, function, op):
    row = getattr(bench, function)(1)
    assert set(row) == _ROW_KEYS
    assert row["op"] == op
    for key in _ROW_KEYS - {"op"}:
        assert row[key] > 0.0, key
