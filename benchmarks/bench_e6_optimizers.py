"""E6 -- Optimizer comparison table.

Solution quality and solve effort of the three disclosure solvers on the
real warfarin problem (tree classifier, where cost structure is the
least additive) and on a wider synthetic instance. Exhaustive search
defines the optimum; branch-and-bound must match it; greedy should be
near-optimal at a fraction of the evaluations.

The benchmarked kernel is branch-and-bound on the warfarin problem.

A fitted pipeline prices each disclosure set once, so every solver row
and every benchmark round gets a freshly fitted pipeline: the solve
times are cold, not cache hits left by the solver before.
"""

import pytest

from repro.api import PrivacyAwareClassifier
from repro.bench import Table
from repro.selection import (
    solve_branch_and_bound,
    solve_exhaustive,
    solve_greedy,
)

from conftest import bench_config

SOLVERS = [
    ("exhaustive", solve_exhaustive),
    ("branch-and-bound", solve_branch_and_bound),
    ("greedy-lazy", solve_greedy),
]


def test_e6_optimizer_comparison(warfarin_train_test, benchmark):
    train, _ = warfarin_train_test
    budget = 0.1

    def fresh_problem():
        pipeline = PrivacyAwareClassifier(bench_config("tree")).fit(train)
        return pipeline.build_problem(budget)

    table = Table(
        "E6: solver comparison (warfarin-like, tree, budget 0.1)",
        ["solver", "cost (s)", "risk", "|S|", "nodes", "solve ms",
         "risk evals"],
    )
    results = {}
    for name, solver in SOLVERS:
        problem = fresh_problem()
        solution = solver(problem)
        results[name] = solution
        table.add_row(
            [name, solution.cost, solution.risk, len(solution.disclosed),
             solution.nodes_explored, solution.solve_seconds * 1e3,
             problem.evaluation_counts["risk"]]
        )
    table.print()

    optimum = results["exhaustive"].cost
    assert results["branch-and-bound"].cost == pytest.approx(optimum, rel=1e-9)
    assert results["greedy-lazy"].cost <= optimum * 1.5
    for solution in results.values():
        assert solution.risk <= budget + 1e-9

    benchmark.pedantic(
        solve_branch_and_bound,
        setup=lambda: ((fresh_problem(),), {}),
        rounds=20,
    )
