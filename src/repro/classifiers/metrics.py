"""Evaluation metrics for the classifier benchmarks."""

from __future__ import annotations

from typing import Tuple

import numpy as np


class MetricsError(Exception):
    """Raised on shape mismatches between predictions and labels."""


def _validate(y_true: np.ndarray, y_pred: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise MetricsError(
            f"label/prediction shape mismatch: {y_true.shape} vs {y_pred.shape}"
        )
    if y_true.size == 0:
        raise MetricsError("cannot score empty predictions")
    return y_true, y_pred


def accuracy(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Fraction of exact label matches."""
    y_true, y_pred = _validate(y_true, y_pred)
    return float((y_true == y_pred).mean())
