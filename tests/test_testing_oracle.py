"""Differential-testing engine: comparisons, kernel cases, bug localization."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.kernels import ORACLE_CASES
from repro.nn.tensor import Tensor
from repro.testing import (
    DivergenceError,
    assert_equivalent,
    check_all_kernels,
    check_kernel,
    compare_arrays,
    differential_check,
    finite_difference_grad,
    max_ulp_diff,
)


class TestMaxUlpDiff:
    def test_identical_arrays_are_zero_ulp(self):
        a = np.random.default_rng(0).normal(size=(4, 5))
        assert max_ulp_diff(a, a.copy()) == 0.0

    def test_adjacent_floats_are_one_ulp(self):
        a = np.array([1.0])
        b = np.nextafter(a, np.inf)
        assert max_ulp_diff(a, b) == 1.0

    def test_sign_straddle_counts_through_zero(self):
        # -tiny -> -0.0 -> +0.0 -> +tiny: the ordering keeps the two
        # zeros distinct, so the straddle is three steps.
        tiny = np.nextafter(np.array([0.0]), np.inf)
        assert max_ulp_diff(-tiny, tiny) == 3.0

    def test_one_ulp_stays_exact_for_large_magnitudes(self):
        a = np.array([1e300])
        b = np.nextafter(a, np.inf)
        assert max_ulp_diff(a, b) == 1.0

    def test_nan_in_one_array_is_inf(self):
        a = np.array([1.0, np.nan])
        b = np.array([1.0, 2.0])
        assert max_ulp_diff(a, b) == float("inf")

    def test_matching_nans_are_allowed(self):
        a = np.array([np.nan, 3.0])
        assert max_ulp_diff(a, a.copy()) == 0.0

    def test_shape_mismatch_is_inf(self):
        assert max_ulp_diff(np.zeros(3), np.zeros(4)) == float("inf")


class TestCompareArrays:
    def test_equal_within_tolerance_passes(self):
        a = np.array([1.0, 2.0])
        row = compare_arrays("x", a, a + 1e-13, rtol=1e-9, atol=1e-12)
        assert row.ok

    def test_divergence_beyond_tolerance_fails(self):
        row = compare_arrays("x", np.array([1.0]), np.array([1.1]), rtol=1e-9)
        assert not row.ok
        assert row.max_abs_err == pytest.approx(0.1)

    def test_none_matches_none_only(self):
        assert compare_arrays("x", None, None).ok
        assert not compare_arrays("x", np.zeros(2), None).ok

    def test_nan_on_one_side_fails_even_with_loose_tolerance(self):
        row = compare_arrays(
            "x", np.array([np.nan]), np.array([0.0]), rtol=1e9, atol=1e9
        )
        assert not row.ok


class TestFiniteDifference:
    def test_matches_analytic_gradient_of_quadratic(self):
        arrays = [np.array([1.0, -2.0, 0.5])]

        def fn(x):
            return float((x**2).sum())

        grad = finite_difference_grad(fn, arrays, 0)
        np.testing.assert_allclose(grad, 2.0 * arrays[0], rtol=1e-6)


class TestDifferentialCheck:
    def test_well_behaved_function_passes(self):
        rng = np.random.default_rng(1)

        def fn(x, w):
            return (x @ w).tanh().sum(axis=1)

        report = differential_check(
            fn,
            (rng.normal(size=(3, 4)), rng.normal(size=(4, 2))),
            name="tanh-matmul",
            input_names=("x", "w"),
        )
        assert report.passed, report.format()
        quantities = [row.quantity for row in report.rows]
        assert "grad[x] fused-vs-composed" in quantities
        assert "grad[w] fused-vs-fd" in quantities

    def test_assert_equivalent_raises_with_structured_message(self, monkeypatch):
        # A "kernel" that disagrees with its composed reference: the two
        # paths genuinely diverge, which is exactly what the oracle exists
        # to catch.
        def wrong_kernel(gi, gh, h, mask_t=None):
            return gi[:, :2] * 2.0

        monkeypatch.setattr(Tensor, "gru_cell_fused", staticmethod(wrong_kernel))

        def fn(x):
            return Tensor.gru_cell_fused(x, x * 0.0, Tensor(np.zeros((2, 2))))

        with pytest.raises(DivergenceError) as excinfo:
            assert_equivalent(fn, (np.ones((2, 6)),), name="path-dependent")
        message = str(excinfo.value)
        assert "path-dependent" in message
        assert "FAIL" in message


class TestKernelOracleCases:
    def test_all_four_fused_kernels_are_registered(self):
        assert {
            "lstm_cell_fused",
            "gru_cell_fused",
            "lstm_scan_fused",
            "gru_scan_fused",
        } <= set(ORACLE_CASES)

    @pytest.mark.parametrize("name", sorted(ORACLE_CASES))
    def test_registered_kernel_passes_oracle(self, name):
        report = check_kernel(name, seed=0)
        assert report.passed, report.format()

    def test_check_all_kernels_covers_registry(self):
        reports = check_all_kernels(seed=1)
        assert set(reports) == set(ORACLE_CASES)
        assert all(r.passed for r in reports.values())

    def test_unknown_kernel_raises_keyerror(self):
        with pytest.raises(KeyError, match="no oracle case"):
            check_kernel("nonexistent_kernel")


class TestInjectedBugLocalization:
    """The acceptance story: a flipped sign in a fused backward is caught
    by the oracle and attributed to the failing op and quantities."""

    def test_flipped_sign_in_lstm_backward_is_localized(self, monkeypatch):
        real = Tensor.__dict__["lstm_cell_fused"].__func__

        def buggy(*args, **kwargs):
            h, c = real(*args, **kwargs)
            inner = h._backward
            if inner is not None:

                def flipped(grad):
                    inner(-grad)

                h._backward = flipped
            return h, c

        monkeypatch.setattr(Tensor, "lstm_cell_fused", staticmethod(buggy))

        report = check_kernel("lstm_cell_fused", seed=0)
        assert not report.passed
        # Forward is untouched by the injected bug; only gradients diverge.
        forward_rows = [r for r in report.rows if r.quantity.startswith("forward")]
        assert all(r.ok for r in forward_rows)
        failing = {r.quantity for r in report.failures}
        assert "grad[h_prev] fused-vs-composed" in failing
        assert "grad[h_prev] fused-vs-fd" in failing
        # Every other kernel still passes: the report localizes the bug.
        assert check_kernel("gru_cell_fused", seed=0).passed
