"""Tests for empirical joint distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.privacy.distribution import DistributionError, EmpiricalJoint


def _xy_data(n=2000, seed=0):
    """Two correlated binary columns plus an independent one."""
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 2, n)
    y = np.where(rng.random(n) < 0.9, x, 1 - x)  # y ~ x with 10% flips
    z = rng.integers(0, 3, n)
    return np.column_stack([x, y, z])


class TestFromData:
    def test_normalised(self):
        joint = EmpiricalJoint.from_data(_xy_data(), [0, 1], [2, 2])
        assert joint.table.sum() == pytest.approx(1.0)

    def test_reflects_correlation(self):
        joint = EmpiricalJoint.from_data(_xy_data(), [0, 1], [2, 2], alpha=0.0)
        agree = joint.table[0, 0] + joint.table[1, 1]
        assert agree > 0.85

    def test_smoothing_avoids_zeros(self):
        data = np.array([[0, 0]] * 10)
        joint = EmpiricalJoint.from_data(data, [0, 1], [2, 2], alpha=1.0)
        assert (joint.table > 0).all()

    def test_bad_alpha_rejected(self):
        with pytest.raises(DistributionError):
            EmpiricalJoint.from_data(_xy_data(), [0], [2], alpha=-1)

    def test_column_domain_mismatch_rejected(self):
        with pytest.raises(DistributionError):
            EmpiricalJoint.from_data(_xy_data(), [0, 1], [2])


class TestMarginalCondition:
    def test_condition_shifts_belief(self):
        joint = EmpiricalJoint.from_data(_xy_data(), [0, 1], [2, 2])
        conditioned = joint.condition({0: 1})
        assert conditioned.column_indices == [1]
        assert conditioned.table[1] > 0.8  # y follows x

    def test_condition_bad_value_rejected(self):
        joint = EmpiricalJoint.from_data(_xy_data(), [0, 1], [2, 2])
        with pytest.raises(DistributionError):
            joint.condition({0: 7})

    def test_condition_unknown_column_rejected(self):
        joint = EmpiricalJoint.from_data(_xy_data(), [0, 1], [2, 2])
        with pytest.raises(DistributionError):
            joint.condition({5: 0})

class TestConstruction:
    def test_rank_mismatch_rejected(self):
        with pytest.raises(DistributionError):
            EmpiricalJoint(np.full((2, 2), 0.25), [0])

    def test_unnormalised_rejected(self):
        with pytest.raises(DistributionError):
            EmpiricalJoint(np.full((2,), 0.7), [0])

    def test_negative_rejected(self):
        with pytest.raises(DistributionError):
            EmpiricalJoint(np.array([1.5, -0.5]), [0])
