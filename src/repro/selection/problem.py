"""Problem statement and solution containers for disclosure selection.

The optimization the paper formulates::

    minimise    cost(S)            (expected SMC time with H = all \\ S)
    subject to  risk(S) <= budget  (privacy loss of disclosing S)
    over        S subseteq candidates

``cost`` is monotone non-increasing in ``S`` (disclosing more never
makes SMC slower); ``risk`` is monotone non-decreasing for a Bayes-
optimal adversary and approximately so for the factorised adversary
(solvers that exploit monotonicity document the assumption).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, Optional, Sequence, Tuple

RiskFunction = Callable[[Iterable[int]], float]
CostFunction = Callable[[Iterable[int]], float]


class SelectionError(Exception):
    """Raised on malformed problems or infeasible configurations."""


@dataclass
class DisclosureProblem:
    """One instance of the disclosure-selection optimization.

    Attributes
    ----------
    candidates:
        Feature indices that *may* be disclosed (never sensitive ones).
    risk:
        ``risk(S) -> [0, 1]`` privacy loss of disclosing set ``S``.
    cost:
        ``cost(S) -> seconds``: estimated secure-evaluation time when
        everything outside ``S`` stays hidden.
    risk_budget:
        Maximum tolerated privacy loss.
    free_features:
        Features whose disclosure is always allowed and free (already
        public); solvers include them unconditionally.

    Example::

        problem = DisclosureProblem(
            candidates=(0, 1, 3),
            risk=lambda s: 0.02 * len(s),
            cost=lambda s: 10.0 - 2.0 * len(s),
            risk_budget=0.05,
        )
        solution = solve_greedy(problem)
    """

    candidates: Tuple[int, ...]
    risk: RiskFunction
    cost: CostFunction
    risk_budget: float
    free_features: Tuple[int, ...] = ()
    _risk_evaluations: int = field(default=0, repr=False)
    _cost_evaluations: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        self.candidates = tuple(dict.fromkeys(self.candidates))
        self.free_features = tuple(dict.fromkeys(self.free_features))
        if not 0.0 <= self.risk_budget <= 1.0:
            raise SelectionError(
                f"risk budget must be in [0, 1], got {self.risk_budget}"
            )
        overlap = set(self.candidates) & set(self.free_features)
        if overlap:
            raise SelectionError(
                f"features {sorted(overlap)} are both free and candidates"
            )

    # -- instrumented evaluation ------------------------------------------

    def evaluate_risk(self, disclosure_set: Iterable[int]) -> float:
        """Risk of ``free_features + disclosure_set`` (instrumented)."""
        self._risk_evaluations += 1
        return self.risk(tuple(disclosure_set) + self.free_features)

    def evaluate_cost(self, disclosure_set: Iterable[int]) -> float:
        """Cost of ``free_features + disclosure_set`` (instrumented)."""
        self._cost_evaluations += 1
        return self.cost(tuple(disclosure_set) + self.free_features)

    @property
    def evaluation_counts(self) -> Dict[str, int]:
        """How many risk/cost calls solvers have spent on this problem."""
        return {"risk": self._risk_evaluations, "cost": self._cost_evaluations}

    def reset_counters(self) -> None:
        """Zero the evaluation counters (between solver comparisons)."""
        self._risk_evaluations = 0
        self._cost_evaluations = 0

    def feasible(self, disclosure_set: Iterable[int]) -> bool:
        """Whether a set respects the privacy budget."""
        return self.evaluate_risk(disclosure_set) <= self.risk_budget + 1e-12


@dataclass(frozen=True)
class DisclosureSolution:
    """A solver's answer.

    Attributes
    ----------
    disclosed:
        The chosen disclosure set (including free features), sorted.
    risk:
        Privacy loss of the chosen set.
    cost:
        Estimated secure-evaluation seconds with the complement hidden.
    algorithm:
        Which solver produced it.
    solve_seconds:
        Wall-clock solver time.
    nodes_explored:
        Search-effort indicator (meaning differs per solver: subsets
        enumerated / greedy steps / B&B nodes).

    Example::

        solution = solve_greedy(problem)
        assert solution.risk <= problem.risk_budget
        print(solution.algorithm, sorted(solution.disclosed))
    """

    disclosed: Tuple[int, ...]
    risk: float
    cost: float
    algorithm: str
    solve_seconds: float
    nodes_explored: int

    def describe(self, feature_names: Optional[Sequence[str]] = None) -> str:
        """One-line human-readable summary."""
        if feature_names is not None:
            shown = ", ".join(feature_names[i] for i in self.disclosed)
        else:
            shown = ", ".join(map(str, self.disclosed))
        return (
            f"[{self.algorithm}] disclose {{{shown}}} "
            f"risk={self.risk:.4f} cost={self.cost:.4f}s "
            f"({self.nodes_explored} nodes, {self.solve_seconds * 1e3:.1f} ms)"
        )


def finalize_solution(
    problem: DisclosureProblem,
    chosen: Iterable[int],
    algorithm: str,
    started_at: float,
    nodes: int,
) -> DisclosureSolution:
    """Build a :class:`DisclosureSolution` from a solver's chosen set."""
    chosen = tuple(sorted(set(chosen) | set(problem.free_features)))
    return DisclosureSolution(
        disclosed=chosen,
        risk=problem.risk(chosen),
        cost=problem.cost(chosen),
        algorithm=algorithm,
        solve_seconds=time.perf_counter() - started_at,
        nodes_explored=nodes,
    )
