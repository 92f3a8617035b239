"""Multinomial logistic regression -- the *hyperplane* classifier.

Trained with full-batch gradient descent on the softmax cross-entropy
with L2 regularisation. Prediction is ``argmax_c w_c . x + b_c``, which
is exactly the form the secure hyperplane protocol evaluates: encrypted
dot products per class followed by a secure argmax (or a single sign
test in the binary case).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.classifiers.base import Classifier, ClassifierError, validate_row


class LogisticRegressionClassifier(Classifier):
    """Softmax regression with gradient descent.

    Parameters
    ----------
    learning_rate:
        Gradient step size.
    iterations:
        Number of full-batch gradient steps.
    l2:
        L2 regularisation strength on the weights (not the biases).
    standardize:
        Standardise features to zero mean / unit variance before
        training; the learned affine map is folded back into the weights
        so prediction operates on raw inputs (required for the secure
        path, which sees raw integer-coded features).
    """

    def __init__(
        self,
        learning_rate: float = 0.5,
        iterations: int = 400,
        l2: float = 1e-3,
        standardize: bool = True,
    ) -> None:
        if learning_rate <= 0:
            raise ClassifierError(f"learning rate must be positive: {learning_rate}")
        if iterations <= 0:
            raise ClassifierError(f"iterations must be positive: {iterations}")
        self.learning_rate = learning_rate
        self.iterations = iterations
        self.l2 = l2
        self.standardize = standardize
        self._weights: Optional[np.ndarray] = None  # (n_classes, n_features)
        self._biases: Optional[np.ndarray] = None  # (n_classes,)

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "LogisticRegressionClassifier":
        """Train with full-batch gradient descent."""
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels)
        self._register_training_shape(features, labels)

        if self.standardize:
            mean = features.mean(axis=0)
            scale = features.std(axis=0)
            scale[scale == 0.0] = 1.0
        else:
            mean = np.zeros(features.shape[1])
            scale = np.ones(features.shape[1])
        standardized = (features - mean) / scale

        n_samples = len(features)
        n_classes = len(self._classes)
        class_index = {label: i for i, label in enumerate(self._classes)}
        one_hot = np.zeros((n_samples, n_classes))
        for row, label in enumerate(labels):
            one_hot[row, class_index[label]] = 1.0

        weights = np.zeros((n_classes, features.shape[1]))
        biases = np.zeros(n_classes)
        for _ in range(self.iterations):
            logits = standardized @ weights.T + biases
            probabilities = _softmax(logits)
            error = probabilities - one_hot
            gradient_w = error.T @ standardized / n_samples + self.l2 * weights
            gradient_b = error.mean(axis=0)
            weights -= self.learning_rate * gradient_w
            biases -= self.learning_rate * gradient_b

        # Fold the standardisation back: w.(x - mu)/sigma + b
        # = (w/sigma).x + (b - w.mu/sigma).
        self._weights = weights / scale
        self._biases = biases - (weights / scale) @ mean
        return self

    @property
    def weights(self) -> np.ndarray:
        """Per-class weight rows on *raw* (unstandardised) inputs."""
        self._check_fitted()
        assert self._weights is not None
        return self._weights

    @property
    def biases(self) -> np.ndarray:
        """Per-class intercepts on raw inputs."""
        self._check_fitted()
        assert self._biases is not None
        return self._biases

    def decision_scores(self, row: np.ndarray) -> np.ndarray:
        """Per-class affine scores ``w_c . x + b_c`` for one row."""
        row = validate_row(row, self.n_features).astype(float)
        return self.weights @ row + self.biases

    def predict_one(self, row: np.ndarray) -> int:
        """Argmax over per-class scores."""
        scores = self.decision_scores(row)
        return int(self._classes[int(np.argmax(scores))])

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Vectorised argmax prediction."""
        features = np.asarray(features, dtype=float)
        self._check_fitted()
        scores = features @ self.weights.T + self.biases
        return self._classes[np.argmax(scores, axis=1)]


def _softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise numerically stable softmax."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)
