"""Smoke-test wiring for ``benchmarks/test_table6_efficiency.py`` (Table VI).

The bench reads each model's per-batch training time (train-b) from the
registry's ``train.batch_ms``, which ``train_rapid`` feeds for every
list-wise model.  This runs its ``_measure`` on the tiny bundle for one
baseline and for RAPID and checks structure only — no wall-clock bounds.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core import RapidConfig, RapidReranker
from repro.rerank import PRMReranker

_BENCH_DIR = Path(__file__).resolve().parents[1] / "benchmarks"


@pytest.fixture(scope="module")
def bench():
    sys.path.insert(0, str(_BENCH_DIR))  # for its `from bench_utils import ...`
    try:
        spec = importlib.util.spec_from_file_location(
            "table6_efficiency", _BENCH_DIR / "test_table6_efficiency.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    finally:
        sys.path.remove(str(_BENCH_DIR))


def test_measure_reports_positive_train_batch_time(bench, tiny_bundle):
    world = tiny_bundle.world
    train = dataclasses.replace(tiny_bundle.config.train, epochs=1)
    rapid_config = RapidConfig(
        user_dim=world.population.feature_dim,
        item_dim=world.catalog.feature_dim,
        num_topics=world.catalog.num_topics,
        hidden=4,
    )
    models = {
        "prm": lambda: PRMReranker(hidden=4, epochs=1),
        "rapid": lambda: RapidReranker(rapid_config, train_config=train),
    }
    for label, make_model in models.items():
        row = bench._measure(make_model, tiny_bundle, label)
        assert set(row) == {"train-all (s)", "train-b (ms)", "test-b (ms)"}
        assert row["train-b (ms)"] > 0.0
        assert row["train-all (s)"] > 0.0
        assert row["test-b (ms)"] > 0.0
