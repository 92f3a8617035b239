"""Tests for evaluation metrics."""

import numpy as np
import pytest

from repro.classifiers.metrics import MetricsError, accuracy


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_none_correct(self):
        assert accuracy(np.array([1, 1]), np.array([0, 0])) == 0.0

    def test_partial(self):
        assert accuracy(np.array([1, 0, 1, 0]), np.array([1, 0, 0, 1])) == 0.5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(MetricsError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_empty_rejected(self):
        with pytest.raises(MetricsError):
            accuracy(np.array([]), np.array([]))

