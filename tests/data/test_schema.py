"""Tests for dataset schema containers."""

import numpy as np
import pytest

from repro.data.schema import Dataset, FeatureSpec, SchemaError


def _tiny_dataset() -> Dataset:
    features = [
        FeatureSpec("a", 3, public=True),
        FeatureSpec("b", 2),
        FeatureSpec("s", 2, sensitive=True),
    ]
    X = np.array([[0, 1, 0], [2, 0, 1], [1, 1, 1]])
    return Dataset(name="tiny", features=features, X=X, y=np.array([0, 1, 0]))


class TestFeatureSpec:
    def test_bit_length(self):
        assert FeatureSpec("x", 2).bit_length == 1
        assert FeatureSpec("x", 3).bit_length == 2
        assert FeatureSpec("x", 9).bit_length == 4

    def test_domain_too_small_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSpec("x", 1)

    def test_sensitive_and_public_rejected(self):
        with pytest.raises(SchemaError):
            FeatureSpec("x", 2, sensitive=True, public=True)


class TestDataset:
    def test_basic_views(self):
        ds = _tiny_dataset()
        assert ds.n_samples == 3
        assert ds.n_features == 3
        assert ds.n_classes == 2
        assert ds.feature_names == ["a", "b", "s"]
        assert ds.domain_sizes == [3, 2, 2]

    def test_partitions(self):
        ds = _tiny_dataset()
        assert ds.sensitive_indices == [2]
        assert ds.public_indices == [0]
        assert ds.disclosable_indices == [0, 1]

    def test_feature_index(self):
        ds = _tiny_dataset()
        assert ds.feature_index("b") == 1
        with pytest.raises(SchemaError):
            ds.feature_index("zzz")

    def test_subset(self):
        ds = _tiny_dataset()
        sub = ds.subset([0, 2], "/half")
        assert sub.n_samples == 2
        assert sub.name == "tiny/half"
        assert sub.y.tolist() == [0, 0]

    def test_describe_mentions_flags(self):
        text = _tiny_dataset().describe()
        assert "sensitive" in text
        assert "public" in text

    def test_codes_outside_domain_rejected(self):
        features = [FeatureSpec("a", 2)]
        with pytest.raises(SchemaError):
            Dataset("bad", features, np.array([[5]]), np.array([0]))

    def test_first_feature_outside_its_domain_is_named(self):
        features = [FeatureSpec("a", 2), FeatureSpec("b", 3),
                    FeatureSpec("c", 2)]
        X = np.array([[0, 2, 0], [1, -1, 2]])
        with pytest.raises(SchemaError, match="'b' has codes outside"):
            Dataset("bad", features, X, np.array([0, 1]))
        with pytest.raises(SchemaError, match=r"'c' .*\[0, 2\)"):
            Dataset("bad", features, np.array([[0, 2, 5]]), np.array([0]))

    def test_empty_matrix_skips_the_range_check(self):
        ds = Dataset("empty", [FeatureSpec("a", 2)],
                     np.zeros((0, 1), dtype=int), np.zeros(0, dtype=int))
        assert ds.n_samples == 0

    def test_float_matrix_rejected(self):
        features = [FeatureSpec("a", 2)]
        with pytest.raises(SchemaError):
            Dataset("bad", features, np.array([[0.5]]), np.array([0]))

    def test_shape_mismatches_rejected(self):
        features = [FeatureSpec("a", 2)]
        with pytest.raises(SchemaError):
            Dataset("bad", features, np.array([[0], [1]]), np.array([0]))
        with pytest.raises(SchemaError):
            Dataset("bad", features, np.array([[0, 1]]), np.array([0]))

    def test_duplicate_names_rejected(self):
        features = [FeatureSpec("a", 2), FeatureSpec("a", 2)]
        with pytest.raises(SchemaError):
            Dataset("bad", features, np.array([[0, 0]]), np.array([0]))
