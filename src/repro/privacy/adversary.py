"""Bayesian adversaries: posterior inference over sensitive attributes.

The adversary observes the disclosed feature values of a record and
computes a posterior over each sensitive attribute. Two instantiations
trade fidelity against speed:

* :class:`NaiveBayesAdversary` -- assumes disclosed features are
  conditionally independent given the sensitive attribute. Posterior
  updates are per-feature multiplicative, which is what enables the
  paper's fast incremental risk computation
  (:mod:`repro.privacy.incremental`).
* :class:`ExactJointAdversary` -- materialises the exact smoothed joint
  over ``S + {sensitive}``; the gold standard for small ``|S|``.

All adversaries share the :class:`BayesianAdversary` interface:
``posterior(sensitive_column, evidence)`` returning a probability
vector over the sensitive attribute's domain.
"""

from __future__ import annotations

import abc
from typing import Dict, Sequence

import numpy as np

from repro.privacy.distribution import EmpiricalJoint


class AdversaryError(Exception):
    """Raised on invalid adversary queries."""


class BayesianAdversary(abc.ABC):
    """Interface: posterior over a sensitive column given evidence."""

    def __init__(
        self,
        data: np.ndarray,
        domain_sizes: Sequence[int],
        sensitive_columns: Sequence[int],
    ) -> None:
        self.data = np.asarray(data)
        self.domain_sizes = list(domain_sizes)
        self.sensitive_columns = list(sensitive_columns)
        if not self.sensitive_columns:
            raise AdversaryError("at least one sensitive column is required")
        for column in self.sensitive_columns:
            if not 0 <= column < self.data.shape[1]:
                raise AdversaryError(f"sensitive column {column} out of range")

    @abc.abstractmethod
    def posterior(
        self, sensitive_column: int, evidence: Dict[int, int]
    ) -> np.ndarray:
        """``P(sensitive | evidence)`` as a probability vector.

        When the sensitive column itself appears in the evidence (the
        record owner chose to disclose it), the posterior is a point
        mass on the disclosed value -- total privacy loss for that
        attribute.
        """

    def _point_mass(self, sensitive_column: int, value: int) -> np.ndarray:
        """Degenerate posterior for a directly disclosed attribute."""
        size = self.domain_sizes[sensitive_column]
        if not 0 <= value < size:
            raise AdversaryError(
                f"disclosed value {value} outside domain [0, {size})"
            )
        mass = np.zeros(size)
        mass[value] = 1.0
        return mass

    def prior(self, sensitive_column: int) -> np.ndarray:
        """``P(sensitive)`` -- posterior with no evidence."""
        return self.posterior(sensitive_column, {})

    def _check_sensitive(self, sensitive_column: int) -> None:
        if sensitive_column not in self.sensitive_columns:
            raise AdversaryError(
                f"column {sensitive_column} is not a declared sensitive column "
                f"(declared: {self.sensitive_columns})"
            )


class NaiveBayesAdversary(BayesianAdversary):
    """Conditionally-independent adversary.

    Model: ``P(x_S | t) = prod_{f in S} P(x_f | t)`` for each sensitive
    attribute ``t``. The per-feature conditional tables are estimated
    with Laplace smoothing at construction; a posterior query is a
    product of table lookups.
    """

    def __init__(
        self,
        data: np.ndarray,
        domain_sizes: Sequence[int],
        sensitive_columns: Sequence[int],
        alpha: float = 0.5,
    ) -> None:
        super().__init__(data, domain_sizes, sensitive_columns)
        self.alpha = alpha
        # conditionals[t][f] is a (dom_t, dom_f) table of P(x_f | t).
        self._conditionals: Dict[int, Dict[int, np.ndarray]] = {}
        self._priors: Dict[int, np.ndarray] = {}
        n_columns = self.data.shape[1]
        for t in self.sensitive_columns:
            dom_t = self.domain_sizes[t]
            counts = np.full(dom_t, alpha)
            np.add.at(counts, self.data[:, t], 1.0)
            self._priors[t] = counts / counts.sum()
            tables: Dict[int, np.ndarray] = {}
            for f in range(n_columns):
                if f == t:
                    continue
                table = np.full((dom_t, self.domain_sizes[f]), alpha)
                np.add.at(table, (self.data[:, t], self.data[:, f]), 1.0)
                tables[f] = table / table.sum(axis=1, keepdims=True)
            self._conditionals[t] = tables
        self._log_conditionals: Dict[int, Dict[int, np.ndarray]] = {
            t: {f: np.log(table) for f, table in tables.items()}
            for t, tables in self._conditionals.items()
        }

    def posterior(
        self, sensitive_column: int, evidence: Dict[int, int]
    ) -> np.ndarray:
        self._check_sensitive(sensitive_column)
        if sensitive_column in evidence:
            return self._point_mass(sensitive_column, evidence[sensitive_column])
        log_belief = np.log(self._priors[sensitive_column])
        tables = self._log_conditionals[sensitive_column]
        for column, value in evidence.items():
            log_belief = log_belief + tables[column][:, value]
        log_belief -= log_belief.max()
        belief = np.exp(log_belief)
        return belief / belief.sum()

    def likelihood_column(self, sensitive_column: int, feature: int) -> np.ndarray:
        """The ``(dom_t, dom_f)`` table ``P(x_f | t)`` -- exposed for the
        incremental evaluator's cached updates."""
        self._check_sensitive(sensitive_column)
        return self._conditionals[sensitive_column][feature]

    def prior(self, sensitive_column: int) -> np.ndarray:
        self._check_sensitive(sensitive_column)
        return self._priors[sensitive_column].copy()


class ExactJointAdversary(BayesianAdversary):
    """Reference adversary over the exact smoothed joint.

    Posterior queries materialise the joint over ``evidence columns +
    sensitive`` -- exponential in ``|S|``, so only usable for small
    disclosure sets; used to validate the fast adversaries.
    """

    def __init__(
        self,
        data: np.ndarray,
        domain_sizes: Sequence[int],
        sensitive_columns: Sequence[int],
        alpha: float = 0.5,
        max_cells: int = 2_000_000,
    ) -> None:
        super().__init__(data, domain_sizes, sensitive_columns)
        self.alpha = alpha
        self.max_cells = max_cells
        self._cache: Dict[tuple, EmpiricalJoint] = {}

    def posterior(
        self, sensitive_column: int, evidence: Dict[int, int]
    ) -> np.ndarray:
        self._check_sensitive(sensitive_column)
        if sensitive_column in evidence:
            return self._point_mass(sensitive_column, evidence[sensitive_column])
        columns = sorted(evidence) + [sensitive_column]
        cells = int(np.prod([self.domain_sizes[c] for c in columns]))
        if cells > self.max_cells:
            raise AdversaryError(
                f"exact joint over {columns} has {cells} cells "
                f"(> {self.max_cells}); use a factorised adversary"
            )
        key = tuple(columns)
        if key not in self._cache:
            self._cache[key] = EmpiricalJoint.from_data(
                self.data,
                columns,
                [self.domain_sizes[c] for c in columns],
                alpha=self.alpha,
            )
        joint = self._cache[key]
        conditioned = joint.condition(dict(evidence))
        return conditioned.table.copy()

