"""Tests for the shared utilities: rng and validation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.utils import (
    check_in_range,
    check_positive,
    check_probability_matrix,
    make_rng,
    spawn_rngs,
)


class TestRng:
    def test_make_rng_from_seed_reproducible(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_make_rng_passthrough(self):
        rng = np.random.default_rng(0)
        assert make_rng(rng) is rng

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(7, 3)
        assert len(rngs) == 3
        draws = {rng.random() for rng in rngs}
        assert len(draws) == 3

    def test_spawn_rngs_reproducible(self):
        a = [rng.random() for rng in spawn_rngs(7, 2)]
        b = [rng.random() for rng in spawn_rngs(7, 2)]
        assert a == b


class TestValidation:
    def test_probability_matrix_accepts_valid(self):
        tau = np.array([[0.0, 0.5], [1.0, 0.25]])
        assert np.array_equal(check_probability_matrix(tau), tau)

    def test_probability_matrix_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            check_probability_matrix(np.array([[1.2, 0.0]]))
        with pytest.raises(ValueError):
            check_probability_matrix(np.array([[-0.2, 0.0]]))

    def test_probability_matrix_rejects_wrong_ndim(self):
        with pytest.raises(ValueError):
            check_probability_matrix(np.zeros(3))

    def test_check_positive(self):
        assert check_positive(1.5, "x") == 1.5
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_check_in_range(self):
        assert check_in_range(0.5, 0.0, 1.0, "x") == 0.5
        with pytest.raises(ValueError):
            check_in_range(1.5, 0.0, 1.0, "x")
