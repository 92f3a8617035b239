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
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.privacy.adversary import BayesianAdversary, NaiveBayesAdversary


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


@dataclass
class RiskModel:
    """Prices disclosure sets against a cohort.

    Parameters
    ----------
    adversary:
        The Bayesian adversary instance (its training data defines the
        population model).
    evaluation_rows:
        Records over which risk is averaged; typically a held-out
        sample of the cohort. Shape ``(m, d)``.
    sensitive_columns:
        Columns the adversary targets.
    metric:
        Aggregation metric (see :class:`RiskMetric`).
    """

    adversary: BayesianAdversary
    evaluation_rows: np.ndarray
    sensitive_columns: Sequence[int]
    metric: RiskMetric = RiskMetric.MAX_POSTERIOR
    background_columns: Sequence[int] = ()
    _baseline: Dict[int, float] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        self.evaluation_rows = np.asarray(self.evaluation_rows)
        self.sensitive_columns = list(self.sensitive_columns)
        self.background_columns = tuple(sorted(set(self.background_columns)))
        if self.evaluation_rows.ndim != 2:
            raise RiskError(
                f"evaluation rows must be 2-d, got {self.evaluation_rows.shape}"
            )
        if not self.sensitive_columns:
            raise RiskError("at least one sensitive column is required")
        if set(self.background_columns) & set(self.sensitive_columns):
            raise RiskError("sensitive columns cannot be background knowledge")
        for t in self.sensitive_columns:
            self._baseline[t] = self._confidence(t, self.background_columns)

    # -- public API -----------------------------------------------------

    def risk(self, disclosure_set: Iterable[int]) -> float:
        """Normalised privacy loss of disclosing ``disclosure_set``.

        The adversary's baseline already conditions on
        ``background_columns`` (publicly known attributes), so
        disclosing a background column is free and risk measures only
        the *new* information handed over.
        """
        columns = self._validated(disclosure_set)
        columns = tuple(sorted(set(columns) | set(self.background_columns)))
        losses = [
            self._normalised_gain(t, columns) for t in self.sensitive_columns
        ]
        return float(np.mean(losses))

    # -- internals --------------------------------------------------------

    def _validated(self, disclosure_set: Iterable[int]) -> Tuple[int, ...]:
        columns = tuple(sorted(set(disclosure_set)))
        d = self.evaluation_rows.shape[1]
        for column in columns:
            if not 0 <= column < d:
                raise RiskError(f"column {column} outside 0..{d - 1}")
        return columns

    def _posteriors(
        self, sensitive_column: int, columns: Tuple[int, ...]
    ) -> np.ndarray:
        """Posterior matrix ``(m, dom_t)`` for every evaluation row.

        A directly disclosed sensitive attribute yields per-row point
        masses on its true values -- maximal loss for that attribute.
        """
        rows = self.evaluation_rows
        if sensitive_column in columns:
            domain = len(self.adversary.prior(sensitive_column))
            posteriors = np.zeros((len(rows), domain))
            posteriors[np.arange(len(rows)), rows[:, sensitive_column]] = 1.0
            return posteriors
        if isinstance(self.adversary, NaiveBayesAdversary):
            return _batched_naive_posteriors(
                self.adversary, sensitive_column, columns, rows
            )
        out = []
        for row in rows:
            evidence = {c: int(row[c]) for c in columns}
            out.append(self.adversary.posterior(sensitive_column, evidence))
        return np.array(out)

    def _confidence(self, sensitive_column: int, columns: Tuple[int, ...]) -> float:
        return adversary_score(
            self.metric,
            self._posteriors(sensitive_column, columns),
            self.evaluation_rows[:, sensitive_column],
        )

    def _normalised_gain(self, sensitive_column: int, columns: Tuple[int, ...]) -> float:
        return normalised_gain(
            self.metric,
            self._baseline[sensitive_column],
            self._confidence(sensitive_column, columns),
        )


def _batched_naive_posteriors(
    adversary: NaiveBayesAdversary,
    sensitive_column: int,
    columns: Tuple[int, ...],
    rows: np.ndarray,
) -> np.ndarray:
    """Vectorised posterior computation for the naive-Bayes adversary.

    One matrix operation per disclosed column instead of one Python loop
    per row; this is the workhorse behind the optimizer's thousands of
    risk evaluations.
    """
    prior = adversary.prior(sensitive_column)
    log_beliefs = np.tile(np.log(prior), (len(rows), 1))
    for column in columns:
        table = adversary.likelihood_column(sensitive_column, column)
        log_beliefs += np.log(table[:, rows[:, column]]).T
    log_beliefs -= log_beliefs.max(axis=1, keepdims=True)
    beliefs = np.exp(log_beliefs)
    return beliefs / beliefs.sum(axis=1, keepdims=True)
