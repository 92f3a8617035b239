"""Tests for the categorical naive Bayes classifier."""

import numpy as np
import pytest

from repro.classifiers.base import ClassifierError
from repro.classifiers.metrics import accuracy
from repro.classifiers.naive_bayes import NaiveBayesClassifier


def _discrete_data(n=800, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.integers(0, 4, size=(n, 4))
    y = ((X[:, 0] + X[:, 1]) > 3).astype(int)
    return X, y


class TestFitPredict:
    def test_learns_dependent_labels(self):
        X, y = _discrete_data()
        model = NaiveBayesClassifier().fit(X, y)
        assert accuracy(y, model.predict(X)) > 0.85

    def test_tables_are_normalised(self):
        X, y = _discrete_data()
        model = NaiveBayesClassifier().fit(X, y)
        for table in model.log_likelihoods:
            assert np.allclose(np.exp(table).sum(axis=1), 1.0)

    def test_priors_normalised(self):
        X, y = _discrete_data()
        model = NaiveBayesClassifier().fit(X, y)
        assert np.isclose(np.exp(model.log_priors).sum(), 1.0)

    def test_explicit_domains_allow_unseen_codes(self):
        X = np.array([[0, 0], [1, 1], [0, 1], [1, 0]])
        y = np.array([0, 1, 0, 1])
        model = NaiveBayesClassifier(domain_sizes=[3, 3]).fit(X, y)
        # Code 2 never appeared in training but is inside the domain.
        assert model.predict_one(np.array([2, 2])) in (0, 1)

    def test_inferred_domains(self):
        X, y = _discrete_data()
        model = NaiveBayesClassifier().fit(X, y)
        assert model.domain_sizes == [4, 4, 4, 4]

    def test_joint_log_scores_match_manual(self):
        X = np.array([[0], [0], [1], [1]])
        y = np.array([0, 0, 1, 1])
        model = NaiveBayesClassifier(alpha=1.0).fit(X, y)
        scores = model.joint_log_scores(np.array([0]))
        # P(x=0|c=0) = (2+1)/(2+2) = 0.75; P(x=0|c=1) = (0+1)/(2+2) = 0.25.
        expected0 = np.log(0.5) + np.log(0.75)
        expected1 = np.log(0.5) + np.log(0.25)
        assert np.allclose(scores, [expected0, expected1])


class TestValidation:
    def test_float_features_rejected(self):
        with pytest.raises(ClassifierError, match="integer-coded"):
            NaiveBayesClassifier().fit(np.zeros((4, 2)), np.zeros(4, dtype=int))

    def test_negative_codes_rejected(self):
        X = np.array([[-1, 0], [0, 1]])
        with pytest.raises(ClassifierError):
            NaiveBayesClassifier().fit(X, np.array([0, 1]))

    def test_code_outside_declared_domain_rejected(self):
        X = np.array([[5, 0], [0, 1]])
        with pytest.raises(ClassifierError):
            NaiveBayesClassifier(domain_sizes=[3, 3]).fit(X, np.array([0, 1]))

    def test_domain_count_mismatch_rejected(self):
        X = np.array([[0, 0], [1, 1]])
        with pytest.raises(ClassifierError):
            NaiveBayesClassifier(domain_sizes=[2]).fit(X, np.array([0, 1]))

    def test_bad_alpha_rejected(self):
        with pytest.raises(ClassifierError):
            NaiveBayesClassifier(alpha=0)

    def test_prediction_code_outside_domain_rejected(self):
        X, y = _discrete_data(100)
        model = NaiveBayesClassifier().fit(X, y)
        with pytest.raises(ClassifierError):
            model.predict_one(np.array([9, 0, 0, 0]))
