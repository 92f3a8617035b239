"""Categorical naive Bayes with Laplace smoothing.

Prediction is ``argmax_c [log P(c) + sum_f log P(x_f = v | c)]`` over
integer-coded categorical features. The log-probability tables are the
model the secure protocol consumes: each hidden feature's contribution
is fetched through an encrypted indicator-vector lookup and the class
scores feed the secure argmax.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.classifiers.base import Classifier, ClassifierError, validate_row


class NaiveBayesClassifier(Classifier):
    """Discrete naive Bayes.

    Parameters
    ----------
    alpha:
        Laplace smoothing pseudo-count (per feature value per class).
    domain_sizes:
        Optional per-feature domain sizes. When omitted they are
        inferred as ``max(code) + 1`` from the training data; passing
        them explicitly guards against prediction-time codes unseen in
        training.
    """

    def __init__(
        self, alpha: float = 1.0, domain_sizes: Optional[Sequence[int]] = None
    ) -> None:
        if alpha <= 0:
            raise ClassifierError(f"smoothing alpha must be positive: {alpha}")
        self.alpha = alpha
        self._declared_domains = list(domain_sizes) if domain_sizes else None
        self._log_priors: Optional[np.ndarray] = None
        self._log_likelihoods: List[np.ndarray] = []
        self._domain_sizes: List[int] = []

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "NaiveBayesClassifier":
        """Estimate smoothed class-conditional tables from counts."""
        features = np.asarray(features)
        labels = np.asarray(labels)
        if not np.issubdtype(features.dtype, np.integer):
            raise ClassifierError(
                "naive Bayes requires integer-coded categorical features; "
                f"got dtype {features.dtype}"
            )
        self._register_training_shape(features, labels)
        if features.min() < 0:
            raise ClassifierError("feature codes must be non-negative")

        n_features = features.shape[1]
        if self._declared_domains is not None:
            if len(self._declared_domains) != n_features:
                raise ClassifierError(
                    f"{len(self._declared_domains)} declared domains for "
                    f"{n_features} features"
                )
            self._domain_sizes = list(self._declared_domains)
        else:
            self._domain_sizes = [
                int(features[:, f].max()) + 1 for f in range(n_features)
            ]
        for f, size in enumerate(self._domain_sizes):
            if features[:, f].max() >= size:
                raise ClassifierError(
                    f"feature {f} has code {features[:, f].max()} outside "
                    f"declared domain of size {size}"
                )

        n_classes = len(self._classes)
        class_counts = np.array(
            [(labels == c).sum() for c in self._classes], dtype=float
        )
        self._log_priors = np.log(class_counts / class_counts.sum())

        self._log_likelihoods = []
        for f in range(n_features):
            size = self._domain_sizes[f]
            table = np.full((n_classes, size), self.alpha, dtype=float)
            for class_pos, c in enumerate(self._classes):
                rows = features[labels == c, f]
                values, counts = np.unique(rows, return_counts=True)
                table[class_pos, values] += counts
            table /= table.sum(axis=1, keepdims=True)
            self._log_likelihoods.append(np.log(table))
        return self

    @property
    def log_priors(self) -> np.ndarray:
        """``log P(c)`` in class order."""
        self._check_fitted()
        assert self._log_priors is not None
        return self._log_priors

    @property
    def log_likelihoods(self) -> List[np.ndarray]:
        """Per-feature ``(n_classes, domain)`` tables of ``log P(v|c)``."""
        self._check_fitted()
        return self._log_likelihoods

    @property
    def domain_sizes(self) -> List[int]:
        """Per-feature category counts the model was fitted with."""
        self._check_fitted()
        return self._domain_sizes

    def joint_log_scores(self, row: np.ndarray) -> np.ndarray:
        """Per-class unnormalised log-posterior for one row."""
        row = validate_row(row, self.n_features)
        scores = self.log_priors.copy()
        for f, value in enumerate(row):
            value = int(value)
            if not 0 <= value < self._domain_sizes[f]:
                raise ClassifierError(
                    f"feature {f} code {value} outside domain "
                    f"[0, {self._domain_sizes[f]})"
                )
            scores += self._log_likelihoods[f][:, value]
        return scores

    def predict_one(self, row: np.ndarray) -> int:
        """Argmax over joint log scores."""
        scores = self.joint_log_scores(row)
        return int(self._classes[int(np.argmax(scores))])
