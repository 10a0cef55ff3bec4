"""Dataset partitioning helpers.

The paper splits each public dataset into behavior history, initial-ranker
training, re-ranking training, and test partitions (chronologically for
Taobao, 2:3:4:1 per user for MovieLens).  Our generators produce the
partitions directly, so this module only needs a generic request-level
splitter (the validation split of the hyper-parameter sweeps).
"""

from __future__ import annotations

from typing import Sequence, TypeVar

import numpy as np

from ..utils.rng import make_rng

__all__ = ["train_test_split"]

T = TypeVar("T")


def train_test_split(
    items: Sequence[T],
    test_fraction: float = 0.2,
    seed: int | np.random.Generator | None = 0,
) -> tuple[list[T], list[T]]:
    """Random split of a sequence into (train, test)."""
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must be in (0, 1)")
    order = np.arange(len(items))
    make_rng(seed).shuffle(order)
    cut = int(round(len(items) * (1.0 - test_fraction)))
    if cut in (0, len(items)):
        raise ValueError("split produced an empty partition; adjust fraction/size")
    train = [items[i] for i in order[:cut]]
    test = [items[i] for i in order[cut:]]
    return train, test
