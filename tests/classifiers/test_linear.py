"""Tests for the logistic-regression (hyperplane) classifier."""

import numpy as np
import pytest

from repro.classifiers.base import ClassifierError
from repro.classifiers.linear import LogisticRegressionClassifier
from repro.classifiers.metrics import accuracy


def _separable_binary(n=400, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X @ np.array([2.0, -1.0, 0.5]) + 0.3 > 0).astype(int)
    return X, y


def _three_class(n=600, seed=1):
    rng = np.random.default_rng(seed)
    centers = np.array([[0, 0], [4, 0], [0, 4]])
    labels = rng.integers(0, 3, n)
    X = centers[labels] + rng.normal(scale=0.8, size=(n, 2))
    return X, labels


class TestBinary:
    def test_learns_separable_data(self):
        X, y = _separable_binary()
        model = LogisticRegressionClassifier(iterations=300).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.95

    def test_decision_scores_consistent_with_predict(self):
        X, y = _separable_binary()
        model = LogisticRegressionClassifier(iterations=200).fit(X, y)
        for row in X[:20]:
            scores = model.decision_scores(row)
            assert model.predict_one(row) == model.classes[int(np.argmax(scores))]


class TestMulticlass:
    def test_learns_three_clusters(self):
        X, y = _three_class()
        model = LogisticRegressionClassifier(iterations=300).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.9

    def test_weight_shapes(self):
        X, y = _three_class()
        model = LogisticRegressionClassifier(iterations=50).fit(X, y)
        assert model.weights.shape == (3, 2)
        assert model.biases.shape == (3,)

    def test_standardisation_folded_into_weights(self):
        # predict() on raw inputs must equal the score computed with the
        # exported raw-space weights.
        X, y = _three_class()
        model = LogisticRegressionClassifier(iterations=100).fit(X, y)
        row = X[0]
        manual = model.weights @ row + model.biases
        assert np.allclose(manual, model.decision_scores(row))

    def test_nonconsecutive_labels(self):
        X, y = _separable_binary()
        y_shifted = np.where(y == 0, 3, 9)
        model = LogisticRegressionClassifier(iterations=150).fit(X, y_shifted)
        predictions = model.predict(X)
        assert set(np.unique(predictions)) <= {3, 9}
        assert accuracy(y_shifted, predictions) > 0.9


class TestValidation:
    def test_unfitted_predict_rejected(self):
        with pytest.raises(ClassifierError):
            LogisticRegressionClassifier().predict(np.zeros((2, 2)))

    def test_bad_learning_rate(self):
        with pytest.raises(ClassifierError):
            LogisticRegressionClassifier(learning_rate=0)

    def test_bad_iterations(self):
        with pytest.raises(ClassifierError):
            LogisticRegressionClassifier(iterations=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ClassifierError):
            LogisticRegressionClassifier().fit(np.zeros((3, 2)), np.zeros(4))

    def test_empty_fit_rejected(self):
        with pytest.raises(ClassifierError):
            LogisticRegressionClassifier().fit(np.zeros((0, 2)), np.zeros(0))

    def test_wrong_row_length_rejected(self):
        X, y = _separable_binary(100)
        model = LogisticRegressionClassifier(iterations=50).fit(X, y)
        with pytest.raises(ClassifierError):
            model.predict_one(np.zeros(5))

    def test_no_standardize_mode(self):
        X, y = _separable_binary()
        model = LogisticRegressionClassifier(
            iterations=300, standardize=False, learning_rate=0.3
        ).fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.9
