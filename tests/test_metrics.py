"""Metric tests: click@k, ndcg@k, div@k, satis@k, rev@k, significance."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import (
    clicks_at_k,
    div_at_k,
    is_significant_improvement,
    ndcg_at_k,
    paired_t_test,
    revenue_at_k,
    satis_at_k,
    topic_coverage,
)


class TestClicksAtK:
    def test_counts_top_k(self):
        clicks = [np.array([1, 0, 1, 1]), np.array([0, 0, 0, 0])]
        assert clicks_at_k(clicks, 2) == pytest.approx(0.5)
        assert clicks_at_k(clicks, 4) == pytest.approx(1.5)

    def test_accepts_matrix(self):
        clicks = np.array([[1.0, 1.0], [0.0, 1.0]])
        assert clicks_at_k(clicks, 2) == pytest.approx(1.5)

    def test_k_beyond_length_uses_all(self):
        assert clicks_at_k([np.array([1.0, 1.0])], 10) == pytest.approx(2.0)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            clicks_at_k([np.array([1.0])], 0)

    @given(st.integers(0, 2**31 - 1), st.integers(1, 10))
    @settings(max_examples=25, deadline=None)
    def test_monotone_in_k(self, seed, k):
        rng = np.random.default_rng(seed)
        clicks = [rng.random(12) for _ in range(4)]
        assert clicks_at_k(clicks, k) <= clicks_at_k(clicks, k + 1) + 1e-12


class TestNdcgAtK:
    def test_perfect_ranking_is_one(self):
        rel = [np.array([1.0, 1.0, 0.0, 0.0])]
        assert ndcg_at_k(rel, 2) == pytest.approx(1.0)

    def test_worst_ranking_below_one(self):
        rel = [np.array([0.0, 0.0, 1.0, 1.0])]
        assert ndcg_at_k(rel, 2) == 0.0

    def test_no_relevance_gives_zero(self):
        assert ndcg_at_k([np.zeros(4)], 2) == 0.0

    def test_permutation_improves(self):
        bad = [np.array([0.0, 0.2, 0.9, 0.8])]
        good = [np.array([0.9, 0.8, 0.2, 0.0])]
        assert ndcg_at_k(good, 4) > ndcg_at_k(bad, 4)

    def test_graded_relevance(self):
        rel = [np.array([0.5, 1.0])]
        discounts = 1.0 / np.log2([2.0, 3.0])
        expected = (0.5 * discounts[0] + 1.0 * discounts[1]) / (
            1.0 * discounts[0] + 0.5 * discounts[1]
        )
        assert ndcg_at_k(rel, 2) == pytest.approx(expected)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_bounded_unit_interval(self, seed):
        rng = np.random.default_rng(seed)
        rel = [rng.random(8) for _ in range(3)]
        value = ndcg_at_k(rel, 5)
        assert 0.0 <= value <= 1.0 + 1e-12


class TestDivAtK:
    def test_topic_coverage_formula(self):
        coverage = np.array([[0.5, 0.0], [0.5, 1.0]])
        assert np.allclose(topic_coverage(coverage), [0.75, 1.0])

    def test_disjoint_topics_add(self):
        lists = [np.eye(3)]
        assert div_at_k(lists, 3) == pytest.approx(3.0)

    def test_duplicate_topics_saturate(self):
        lists = [np.array([[1.0, 0.0], [1.0, 0.0]])]
        assert div_at_k(lists, 2) == pytest.approx(1.0)

    def test_monotone_in_k(self):
        rng = np.random.default_rng(0)
        lists = [rng.random((6, 4)) for _ in range(3)]
        assert div_at_k(lists, 2) <= div_at_k(lists, 5)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            topic_coverage(np.zeros(3))


class TestSatisAtK:
    def test_formula(self):
        phi = [np.array([0.5, 0.5])]
        eps = np.array([0.4, 0.4])
        assert satis_at_k(phi, eps, 2) == pytest.approx(1 - 0.8 * 0.8)

    def test_per_request_termination(self):
        phi = [np.array([1.0]), np.array([1.0])]
        eps = [np.array([0.2]), np.array([0.6])]
        assert satis_at_k(phi, eps, 1) == pytest.approx(0.4)

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            satis_at_k([np.array([0.5])], np.array([0.5]), 0)


class TestRevenueAtK:
    def test_bid_weighting(self):
        clicks = [np.array([1.0, 0.0, 1.0])]
        bids = [np.array([2.0, 5.0, 3.0])]
        assert revenue_at_k(clicks, bids, 3) == pytest.approx(5.0)
        assert revenue_at_k(clicks, bids, 1) == pytest.approx(2.0)

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            revenue_at_k([np.ones(2)], [], 1)


IMPORT_FOOTPRINT = """
import sys
sys.path.insert(0, {src!r})
import numpy as np
import repro.core, repro.serve, repro.eval, repro.dist, repro.obs
import repro.rankers, repro.rerank, repro.resilience
assert "scipy" not in sys.modules, "importing repro loaded scipy"
from repro.metrics import paired_t_test
a = np.array([0.3, 0.9, 0.4, 0.7, 0.2, 0.8, 0.5])
b = np.array([0.1, 0.6, 0.5, 0.3, 0.2, 0.4, 0.1])
got = paired_t_test(a, b)
from scipy import stats
want = stats.ttest_rel(a, b)
assert got == (float(want.statistic), float(want.pvalue)), (got, want)
"""


class TestSignificance:
    def test_scipy_loads_only_when_a_t_test_runs(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_FOOTPRINT.format(src=src)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr

    def test_detects_clear_improvement(self):
        rng = np.random.default_rng(0)
        base = rng.normal(0.0, 1.0, size=200)
        better = base + 0.5
        t_stat, p_value = paired_t_test(better, base)
        assert t_stat > 0
        assert p_value < 0.05
        assert is_significant_improvement(better, base)

    def test_identical_scores_not_significant(self):
        scores = np.ones(50)
        t_stat, p_value = paired_t_test(scores, scores)
        assert p_value == 1.0
        assert not is_significant_improvement(scores, scores)

    def test_worse_candidate_not_significant(self):
        rng = np.random.default_rng(1)
        base = rng.normal(size=100)
        assert not is_significant_improvement(base - 1.0, base)

    def test_misaligned_raises(self):
        with pytest.raises(ValueError):
            paired_t_test(np.ones(3), np.ones(4))

    def test_tiny_samples_handled(self):
        t_stat, p_value = paired_t_test(np.array([1.0]), np.array([0.0]))
        assert p_value == 1.0
