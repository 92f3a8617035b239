"""Fast incremental privacy-loss computation.

The paper's enabling mechanism: the disclosure optimizer evaluates the
risk of thousands of candidate sets ``S + {f}`` while searching, and
recomputing each from scratch costs ``O(|S| * m * k)`` (per-row belief
products over every disclosed feature). Under the conditionally-
independent adversary the posterior factorises, so a cached per-row
log-belief state makes the *marginal* risk of one more feature
``O(m * k)`` -- independent of ``|S|``.

:class:`IncrementalRiskEvaluator` maintains that state with push/pop
semantics (a stack, matching depth-first search in greedy and
branch-and-bound) and a non-mutating ``peek_risk`` for candidate
scoring. Experiment E7 measures the resulting speedup against the
from-scratch evaluation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.privacy.adversary import NaiveBayesAdversary
from repro.privacy.risk import (
    RiskError,
    RiskMetric,
    adversary_score,
    normalised_gain,
)

# Log-weight that turns a row's belief into a numerical point mass when
# the sensitive attribute itself is disclosed (exp(300) dwarfs any
# realistic likelihood product while keeping arithmetic finite and
# exactly reversible on pop()).
_LOG_CERTAINTY = 300.0


class IncrementalRiskEvaluator:
    """Stack-structured risk evaluator with cached belief states.

    Parameters
    ----------
    adversary:
        Must be a :class:`NaiveBayesAdversary` -- the factorised
        posterior is what makes incremental updates exact.
    evaluation_rows:
        Records risk is averaged over, shape ``(m, d)``.
    sensitive_columns:
        The adversary's targets.
    metric:
        Aggregation metric (see :class:`repro.privacy.risk.RiskMetric`).
    """

    def __init__(
        self,
        adversary: NaiveBayesAdversary,
        evaluation_rows: np.ndarray,
        sensitive_columns: Sequence[int],
        metric: RiskMetric = RiskMetric.MAX_POSTERIOR,
        background_columns: Sequence[int] = (),
    ) -> None:
        if not isinstance(adversary, NaiveBayesAdversary):
            raise RiskError(
                "incremental evaluation requires the factorised "
                "(naive-Bayes) adversary"
            )
        self.adversary = adversary
        self.rows = np.asarray(evaluation_rows)
        self.sensitive_columns = list(sensitive_columns)
        self.metric = metric
        self.background_columns = tuple(sorted(set(background_columns)))
        if set(self.background_columns) & set(self.sensitive_columns):
            raise RiskError("sensitive columns cannot be background knowledge")
        m = len(self.rows)

        # Per-sensitive-column cached log-belief matrices (m, dom_t).
        # Background (already-public) columns are folded into the
        # baseline belief, so disclosing them again costs nothing.
        self._log_beliefs: Dict[int, np.ndarray] = {}
        self._baselines: Dict[int, float] = {}
        for t in self.sensitive_columns:
            prior = adversary.prior(t)
            beliefs = np.tile(np.log(prior), (m, 1))
            for column in self.background_columns:
                beliefs += self._raw_delta(t, column)
            self._log_beliefs[t] = beliefs
            self._baselines[t] = self._score(t, beliefs)
        self._stack: List[int] = []

    # -- stack interface ---------------------------------------------------

    @property
    def disclosed(self) -> Tuple[int, ...]:
        """The currently pushed disclosure set, in push order."""
        return tuple(self._stack)

    def push(self, feature: int) -> None:
        """Extend the current disclosure set with ``feature``."""
        self._validate_feature(feature)
        if feature in self._stack:
            raise RiskError(f"feature {feature} already disclosed")
        for t in self.sensitive_columns:
            self._log_beliefs[t] += self._delta(t, feature)
        self._stack.append(feature)

    def pop(self) -> int:
        """Undo the most recent push; returns the removed feature."""
        if not self._stack:
            raise RiskError("pop from an empty disclosure stack")
        feature = self._stack.pop()
        for t in self.sensitive_columns:
            self._log_beliefs[t] -= self._delta(t, feature)
        return feature

    def reset(self) -> None:
        """Pop everything."""
        while self._stack:
            self.pop()

    # -- risk queries -----------------------------------------------------

    def risk(self) -> float:
        """Normalised privacy loss of the current disclosure set."""
        losses = [
            self._normalised(t, self._log_beliefs[t])
            for t in self.sensitive_columns
        ]
        return float(np.mean(losses))

    def peek_risk(self, feature: int) -> float:
        """Risk of ``current set + {feature}`` without mutating state."""
        self._validate_feature(feature)
        if feature in self._stack:
            raise RiskError(f"feature {feature} already disclosed")
        losses = []
        for t in self.sensitive_columns:
            trial = self._log_beliefs[t] + self._delta(t, feature)
            losses.append(self._normalised(t, trial))
        return float(np.mean(losses))

    def risk_of_set(self, disclosure_set: Iterable[int]) -> float:
        """From-scratch risk of an arbitrary set (naive baseline; used
        by E7 to measure the incremental speedup and by tests to verify
        exactness). Background columns are folded in first, as in the
        stack's baseline."""
        columns = sorted(set(disclosure_set))
        losses = []
        for t in self.sensitive_columns:
            prior = self.adversary.prior(t)
            log_beliefs = np.tile(np.log(prior), (len(self.rows), 1))
            for column in self.background_columns:
                log_beliefs += self._raw_delta(t, column)
            for feature in columns:
                self._validate_feature(feature)
                log_beliefs += self._delta(t, feature)
            losses.append(self._normalised(t, log_beliefs))
        return float(np.mean(losses))

    def as_risk_function(self):
        """Adapt to the set-based ``risk(columns) -> float`` signature
        the solvers consume, keeping the cached state synchronised.

        The adapter diffs each requested set against the evaluator's
        current stack and applies the minimal pops/pushes, so solver
        access patterns (greedy's ``S + {f}`` probes, B&B's depth-first
        walks) hit the incremental fast path automatically.
        """

        def risk(columns) -> float:
            target = {
                int(c)
                for c in columns
                if int(c) not in self.background_columns
            }
            # Pop until the stack is a subset of the target...
            while not set(self._stack) <= target:
                self.pop()
            # ...then push whatever is missing.
            for feature in sorted(target - set(self._stack)):
                self.push(feature)
            return self.risk()

        return risk

    # -- internals --------------------------------------------------------

    def _raw_delta(self, sensitive: int, feature: int) -> np.ndarray:
        """Per-row log-likelihood contribution of one feature."""
        table = self.adversary.likelihood_column(sensitive, feature)
        return np.log(table[:, self.rows[:, feature]]).T

    def _delta(self, sensitive: int, feature: int) -> np.ndarray:
        """Marginal contribution of disclosing ``feature`` now.

        Background columns contribute nothing (the adversary already
        conditions on them); disclosing the sensitive attribute itself
        drives its own posterior to a point mass via a dominating
        log-weight on each row's true value.
        """
        dom = len(self.adversary.prior(sensitive))
        if feature in self.background_columns:
            return np.zeros((len(self.rows), dom))
        if feature == sensitive:
            delta = np.zeros((len(self.rows), dom))
            delta[np.arange(len(self.rows)), self.rows[:, sensitive]] = (
                _LOG_CERTAINTY
            )
            return delta
        return self._raw_delta(sensitive, feature)

    def _validate_feature(self, feature: int) -> None:
        if not 0 <= feature < self.rows.shape[1]:
            raise RiskError(
                f"feature {feature} outside 0..{self.rows.shape[1] - 1}"
            )

    def _score(self, sensitive: int, log_beliefs: np.ndarray) -> float:
        shifted = log_beliefs - log_beliefs.max(axis=1, keepdims=True)
        beliefs = np.exp(shifted)
        beliefs /= beliefs.sum(axis=1, keepdims=True)
        return adversary_score(self.metric, beliefs, self.rows[:, sensitive])

    def _normalised(self, sensitive: int, log_beliefs: np.ndarray) -> float:
        return normalised_gain(
            self.metric,
            self._baselines[sensitive],
            self._score(sensitive, log_beliefs),
        )
