"""Tests for dataset splitters."""

from __future__ import annotations

import pytest

from repro.data import train_test_split


class TestTrainTestSplit:
    def test_partition_sizes(self):
        train, test = train_test_split(list(range(100)), test_fraction=0.2, seed=0)
        assert len(train) == 80
        assert len(test) == 20
        assert sorted(train + test) == list(range(100))

    def test_reproducible(self):
        a = train_test_split(list(range(50)), seed=7)
        b = train_test_split(list(range(50)), seed=7)
        assert a == b

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            train_test_split([1, 2, 3], test_fraction=0.0)

    def test_degenerate_split_raises(self):
        with pytest.raises(ValueError):
            train_test_split([1], test_fraction=0.5)

