"""Privacy-risk machinery: the adversary model and risk metrics.

The paper's threat model: after the client discloses the feature values
in a set ``S``, a Bayesian adversary with knowledge of the population
joint distribution updates its belief about the *sensitive* attributes
(e.g. SNP genotypes). The privacy loss of ``S`` is how much that belief
improves over the prior.

This package provides:

* :mod:`repro.privacy.distribution` -- exact empirical joint
  distributions over small column subsets (with Laplace smoothing).
* :mod:`repro.privacy.adversary` -- two adversary instantiations:
  conditionally-independent (naive-Bayes-style, supports the fast
  incremental risk computation) and exact-joint (reference).
* :mod:`repro.privacy.risk` -- risk metrics: expected max-posterior
  confidence gain (the default), mutual-information / entropy loss, and
  empirical inference accuracy.
* :mod:`repro.privacy.incremental` -- the paper's "quickly compute the
  loss in privacy" mechanism: cached per-row belief states that make
  the marginal risk of adding one feature O(n * |dom(sensitive)|).
"""

from repro.privacy.adversary import (
    BayesianAdversary,
    ExactJointAdversary,
    NaiveBayesAdversary,
)
from repro.privacy.distribution import EmpiricalJoint
from repro.privacy.incremental import IncrementalRiskEvaluator
from repro.privacy.inversion import (
    InversionReport,
    ModelInversionAttack,
    augment_with_model_output,
)
from repro.privacy.risk import (
    RiskMetric,
    entropy_loss_risk,
    inference_accuracy_risk,
    max_posterior_confidence,
)

__all__ = [
    "BayesianAdversary",
    "EmpiricalJoint",
    "ExactJointAdversary",
    "IncrementalRiskEvaluator",
    "InversionReport",
    "ModelInversionAttack",
    "NaiveBayesAdversary",
    "augment_with_model_output",
    "RiskMetric",
    "entropy_loss_risk",
    "inference_accuracy_risk",
    "max_posterior_confidence",
]
