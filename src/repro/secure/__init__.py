"""Secure classifier protocols with partial disclosure.

Each class wraps a trained plaintext model from
:mod:`repro.classifiers` and evaluates it in the two-party setting of
Bost et al. (NDSS 2015): the client holds the feature vector and all
decryption keys; the server holds the model and computes over
ciphertexts. The reproduction's twist -- the paper's contribution -- is
the *disclosure set*: features the client reveals in plaintext before
the SMC phase, shrinking the encrypted computation:

* :class:`~repro.secure.secure_linear.SecureLinearClassifier` --
  encrypted per-class dot products over hidden features only (disclosed
  features fold into the plaintext offset), then a sign test (binary)
  or secure argmax.
* :class:`~repro.secure.secure_naive_bayes.SecureNaiveBayesClassifier`
  -- encrypted indicator-vector lookups per hidden feature, plaintext
  table additions per disclosed feature, then secure argmax.
* :class:`~repro.secure.secure_tree.SecureDecisionTreeClassifier` --
  the tree is first *pruned* with the disclosed values (whole subtrees
  fall away), then the residual tree is evaluated with one encrypted
  comparison per node and a blinded leaf-selection round.

Every classifier also provides an analytic
:meth:`~repro.secure.base.SecureClassifier.estimated_trace`, the cost
function the disclosure optimizer minimises.
"""

from repro.secure.base import SecureClassifier
from repro.secure.encoding import FixedPointEncoder
from repro.secure.secure_linear import SecureLinearClassifier
from repro.secure.secure_naive_bayes import SecureNaiveBayesClassifier
from repro.secure.secure_tree import SecureDecisionTreeClassifier

__all__ = [
    "FixedPointEncoder",
    "SecureClassifier",
    "SecureDecisionTreeClassifier",
    "SecureLinearClassifier",
    "SecureNaiveBayesClassifier",
]
