"""Privacy-risk metrics over disclosure sets.

The risk of disclosing feature set ``S`` is measured against the
cohort: for each record, the adversary sees that record's values of
``S`` and forms posteriors over the sensitive attributes; risk
aggregates how much better those posteriors are than the priors.

Three metrics (ablated in experiment E10):

* ``MAX_POSTERIOR`` (default) -- expected adversary confidence
  ``E_x[max_v P(t = v | x_S)]``, normalised as a loss in ``[0, 1]``:
  ``(confidence(S) - confidence(empty)) / (1 - confidence(empty))``.
  0 means disclosure taught the adversary nothing; 1 means certain
  identification.
* ``ENTROPY`` -- normalised mutual information
  ``(H(t) - E_x[H(t | x_S)]) / H(t)``.
* ``INFERENCE_ACCURACY`` -- empirical top-1 accuracy gain of the
  adversary's MAP guess against the record's true sensitive value.

Multiple sensitive attributes are averaged (each normalised first), so
datasets with different numbers of sensitive attributes are comparable.
"""

from __future__ import annotations

import enum

import numpy as np


class RiskError(Exception):
    """Raised on invalid risk queries (sensitive feature in S, etc.)."""


class RiskMetric(enum.Enum):
    """Which aggregate measures the adversary's gain.

    Disclosing a feature set lets a Bayesian adversary update its
    posterior over each hidden sensitive feature; a risk metric folds
    those per-row posteriors into the single ``[0, 1]`` number the
    disclosure optimizer budgets against. ``MAX_POSTERIOR`` averages
    the adversary's top-posterior confidence (the paper's default),
    ``ENTROPY`` measures normalised posterior entropy *reduction*, and
    ``INFERENCE_ACCURACY`` scores the adversary's actual hit rate when
    it guesses the mode.

    Example::

        config = PipelineConfig(risk_metric=RiskMetric.ENTROPY)
    """

    MAX_POSTERIOR = "max_posterior"
    ENTROPY = "entropy"
    INFERENCE_ACCURACY = "inference_accuracy"


def max_posterior_confidence(posteriors: np.ndarray) -> float:
    """Mean of row-wise maximum posterior probabilities."""
    return float(posteriors.max(axis=1).mean())


def entropy_loss_risk(posteriors: np.ndarray) -> float:
    """Mean posterior Shannon entropy (bits) across rows."""
    clipped = np.clip(posteriors, 1e-12, 1.0)
    return float(-(clipped * np.log2(clipped)).sum(axis=1).mean())


def inference_accuracy_risk(posteriors: np.ndarray, truths: np.ndarray) -> float:
    """Top-1 accuracy of the adversary's MAP guesses."""
    guesses = posteriors.argmax(axis=1)
    return float((guesses == truths).mean())


def adversary_score(
    metric: RiskMetric, posteriors: np.ndarray, truths: np.ndarray
) -> float:
    """How well the adversary does under ``metric``; higher is better
    for it under every metric (entropy is negated)."""
    if metric is RiskMetric.MAX_POSTERIOR:
        return max_posterior_confidence(posteriors)
    if metric is RiskMetric.ENTROPY:
        return -entropy_loss_risk(posteriors)
    return inference_accuracy_risk(posteriors, truths)


def normalised_gain(metric: RiskMetric, baseline: float, achieved: float) -> float:
    """The adversary's score gain over ``baseline`` as a share of the
    most it could gain (full identification), clipped to ``[0, 1]``."""
    # Full identification scores 1, or a point mass's negated entropy 0.
    ceiling = 0.0 if metric is RiskMetric.ENTROPY else 1.0
    if ceiling - baseline <= 1e-12:
        return 0.0
    return float(np.clip((achieved - baseline) / (ceiling - baseline), 0.0, 1.0))
