"""Deterministic train/test split."""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.data.schema import Dataset


class SplitError(Exception):
    """Raised on invalid split parameters."""


def train_test_split(
    dataset: Dataset, test_fraction: float = 0.25, seed: int = 0
) -> Tuple[Dataset, Dataset]:
    """Shuffle rows deterministically and split into train/test views."""
    if not 0.0 < test_fraction < 1.0:
        raise SplitError(f"test_fraction must be in (0, 1), got {test_fraction}")
    rng = np.random.default_rng(seed)
    order = rng.permutation(dataset.n_samples)
    n_test = max(1, int(round(dataset.n_samples * test_fraction)))
    if n_test >= dataset.n_samples:
        raise SplitError("test fraction leaves no training data")
    test_idx = order[:n_test]
    train_idx = order[n_test:]
    return dataset.subset(train_idx, "/train"), dataset.subset(test_idx, "/test")

