"""The from-scratch privacy-risk reference the fast paths are checked against.

:class:`RiskModel` prices one disclosure set by recomputing every
evaluation row's posterior under the adversary; the optimizer's
:class:`repro.privacy.incremental.IncrementalRiskEvaluator` must agree
with it to floating-point tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.privacy.adversary import BayesianAdversary, NaiveBayesAdversary
from repro.privacy.risk import (
    RiskError,
    RiskMetric,
    adversary_score,
    normalised_gain,
)


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
