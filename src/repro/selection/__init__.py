"""Disclosure-set optimizers.

Given a risk function (privacy loss of disclosing a set), a cost
function (SMC time with the complementary set hidden) and a privacy
budget, find the disclosure set minimising cost subject to the budget:

* :mod:`repro.selection.problem` -- the problem statement and solution
  containers shared by all solvers.
* :mod:`repro.selection.exhaustive` -- exact enumeration (reference, up
  to ~20 candidates).
* :mod:`repro.selection.greedy` -- lazy (CELF-style) greedy by
  cost-saving per unit risk; the paper's practical solver.
* :mod:`repro.selection.branch_and_bound` -- exact search with greedy
  incumbent and optimistic cost pruning.
* :mod:`repro.selection.pareto` -- risk/cost trade-off frontiers swept
  over budgets.
"""

from repro.selection.branch_and_bound import solve_branch_and_bound
from repro.selection.dual import solve_dual_exhaustive, solve_dual_greedy
from repro.selection.exhaustive import solve_exhaustive
from repro.selection.greedy import solve_greedy
from repro.selection.pareto import pareto_frontier
from repro.selection.problem import DisclosureProblem, DisclosureSolution

__all__ = [
    "DisclosureProblem",
    "DisclosureSolution",
    "pareto_frontier",
    "solve_branch_and_bound",
    "solve_dual_exhaustive",
    "solve_dual_greedy",
    "solve_exhaustive",
    "solve_greedy",
]
