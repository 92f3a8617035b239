"""Tests for dataset splits."""

import hashlib

import numpy as np
import pytest

from repro.data.splits import SplitError, train_test_split
from repro.data.warfarin import generate_warfarin


class TestTrainTestSplit:
    def test_sizes(self, warfarin):
        train, test = train_test_split(warfarin, test_fraction=0.25, seed=0)
        assert test.n_samples == 500
        assert train.n_samples == 1500

    def test_disjoint_and_complete(self, warfarin):
        train, test = train_test_split(warfarin, seed=1)
        combined = np.concatenate([train.y, test.y])
        assert len(combined) == warfarin.n_samples

    def test_deterministic(self, warfarin):
        a_train, _ = train_test_split(warfarin, seed=3)
        b_train, _ = train_test_split(warfarin, seed=3)
        assert np.array_equal(a_train.X, b_train.X)

    def test_bad_fraction_rejected(self, warfarin):
        with pytest.raises(SplitError):
            train_test_split(warfarin, test_fraction=0.0)
        with pytest.raises(SplitError):
            train_test_split(warfarin, test_fraction=1.0)



def test_optimizer_warfarin_split_pinned():
    # The optimizer benchmark's tree cohort: its bytes must not move
    # when the generator, the split or the schema checks change.
    train, test = train_test_split(
        generate_warfarin(n_samples=4000, seed=0), seed=0
    )
    digest = hashlib.sha256()
    for array in (train.X, train.y, test.X, test.y):
        digest.update(array.astype("<i8").tobytes())
    assert digest.hexdigest() == (
        "58325699061c251c6487a658412b25618e7af82d7aa257b98156196d56207a3a"
    )
