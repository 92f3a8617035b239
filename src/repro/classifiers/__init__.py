"""Plaintext classifiers trained with numpy only.

The paper evaluates the three model families for which Bost et al. gave
secure evaluation protocols; this package provides from-scratch trainers
for all of them (the offline environment has no scikit-learn):

* :class:`~repro.classifiers.linear.LogisticRegressionClassifier` --
  multinomial logistic regression (the *hyperplane* classifier),
* :class:`~repro.classifiers.naive_bayes.NaiveBayesClassifier` --
  categorical naive Bayes with Laplace smoothing,
* :class:`~repro.classifiers.decision_tree.DecisionTreeClassifier` --
  CART with Gini impurity and ordinal threshold splits.

All trainers consume the integer-coded feature matrices produced by
:mod:`repro.data`, which keeps the plain and secure evaluation paths
bit-compatible.
"""

from repro.classifiers.base import Classifier
from repro.classifiers.decision_tree import DecisionTreeClassifier, TreeNode
from repro.classifiers.linear import LogisticRegressionClassifier
from repro.classifiers.metrics import accuracy
from repro.classifiers.naive_bayes import NaiveBayesClassifier

__all__ = [
    "Classifier",
    "DecisionTreeClassifier",
    "LogisticRegressionClassifier",
    "NaiveBayesClassifier",
    "TreeNode",
    "accuracy",
]
