"""Tests for all three disclosure solvers, individually and against each
other on shared synthetic problems."""

import itertools

import pytest

from repro.selection.branch_and_bound import solve_branch_and_bound
from repro.selection.exhaustive import MAX_EXHAUSTIVE_CANDIDATES, solve_exhaustive
from repro.selection.greedy import solve_greedy
from repro.selection.problem import DisclosureProblem, SelectionError


def make_problem(risks, savings, budget, base_cost=10.0):
    """Additive synthetic problem: each candidate i has risk ``risks[i]``
    and cost saving ``savings[i]`` (cost = base - sum of savings)."""

    def risk(columns):
        return sum(risks[c] for c in set(columns))

    def cost(columns):
        return base_cost - sum(savings[c] for c in set(columns))

    return DisclosureProblem(
        candidates=tuple(range(len(risks))),
        risk=risk,
        cost=cost,
        risk_budget=budget,
    )


def brute_force_optimum(risks, savings, budget, base_cost=10.0):
    best = base_cost
    for size in range(len(risks) + 1):
        for subset in itertools.combinations(range(len(risks)), size):
            if sum(risks[c] for c in subset) <= budget + 1e-12:
                best = min(best, base_cost - sum(savings[c] for c in subset))
    return best


KNAPSACK = dict(
    risks=[0.05, 0.10, 0.20, 0.30, 0.02, 0.15],
    savings=[1.0, 2.5, 2.0, 4.0, 0.5, 2.2],
    budget=0.35,
)


class TestExhaustive:
    def test_finds_optimum(self):
        problem = make_problem(**KNAPSACK)
        solution = solve_exhaustive(problem)
        assert solution.cost == pytest.approx(brute_force_optimum(**KNAPSACK))

    def test_budget_respected(self):
        problem = make_problem(**KNAPSACK)
        solution = solve_exhaustive(problem)
        assert solution.risk <= KNAPSACK["budget"] + 1e-9

    def test_zero_budget_discloses_nothing_costly(self):
        problem = make_problem(
            risks=[0.5, 0.5], savings=[1.0, 1.0], budget=0.0
        )
        solution = solve_exhaustive(problem)
        assert solution.disclosed == ()

    def test_candidate_cap(self):
        risks = [0.0] * (MAX_EXHAUSTIVE_CANDIDATES + 1)
        problem = make_problem(risks=risks, savings=risks, budget=1.0)
        with pytest.raises(SelectionError):
            solve_exhaustive(problem)


class TestGreedy:
    @pytest.mark.parametrize("lazy", [True, False])
    def test_respects_budget(self, lazy):
        problem = make_problem(**KNAPSACK)
        solution = solve_greedy(problem, lazy=lazy)
        assert solution.risk <= KNAPSACK["budget"] + 1e-9

    @pytest.mark.parametrize("lazy", [True, False])
    def test_near_optimal_on_knapsack(self, lazy):
        problem = make_problem(**KNAPSACK)
        optimum = brute_force_optimum(**KNAPSACK)
        solution = solve_greedy(problem, lazy=lazy)
        assert solution.cost <= optimum * 1.4 + 1e-9

    def test_lazy_matches_eager_on_additive_problem(self):
        # With additive (modular) risk and cost, lazy ratios are exact,
        # so both modes pick identical sets.
        lazy = solve_greedy(make_problem(**KNAPSACK), lazy=True)
        eager = solve_greedy(make_problem(**KNAPSACK), lazy=False)
        assert set(lazy.disclosed) == set(eager.disclosed)

    def test_lazy_uses_fewer_evaluations(self):
        risks = [0.01 * (i + 1) for i in range(12)]
        savings = [1.0 / (i + 1) for i in range(12)]
        lazy_problem = make_problem(risks, savings, 0.2)
        solve_greedy(lazy_problem, lazy=True)
        lazy_evals = lazy_problem.evaluation_counts["risk"]
        eager_problem = make_problem(risks, savings, 0.2)
        solve_greedy(eager_problem, lazy=False)
        eager_evals = eager_problem.evaluation_counts["risk"]
        assert lazy_evals <= eager_evals

    def test_zero_saving_candidates_skipped(self):
        problem = make_problem(risks=[0.1, 0.1], savings=[0.0, 1.0], budget=1.0)
        solution = solve_greedy(problem)
        assert 0 not in solution.disclosed
        assert 1 in solution.disclosed

    def test_free_features_always_included(self):
        def risk(columns):
            return 0.1 * len([c for c in set(columns) if c != 5])

        def cost(columns):
            return 10.0 - len(set(columns))

        problem = DisclosureProblem(
            candidates=(0, 1), risk=risk, cost=cost,
            risk_budget=0.05, free_features=(5,),
        )
        solution = solve_greedy(problem)
        assert 5 in solution.disclosed


class TestBranchAndBound:
    def test_finds_optimum(self):
        problem = make_problem(**KNAPSACK)
        solution = solve_branch_and_bound(problem)
        assert solution.cost == pytest.approx(brute_force_optimum(**KNAPSACK))

    def test_matches_exhaustive_on_random_instances(self):
        import random

        rng = random.Random(0)
        for _ in range(10):
            n = rng.randint(3, 8)
            risks = [rng.uniform(0.01, 0.3) for _ in range(n)]
            savings = [rng.uniform(0.1, 3.0) for _ in range(n)]
            budget = rng.uniform(0.1, 0.6)
            bnb = solve_branch_and_bound(make_problem(risks, savings, budget))
            exact = solve_exhaustive(make_problem(risks, savings, budget))
            assert bnb.cost == pytest.approx(exact.cost, abs=1e-9)

    def test_prunes_vs_exhaustive(self):
        problem = make_problem(**KNAPSACK)
        bnb = solve_branch_and_bound(problem)
        exhaustive_nodes = 2 ** len(KNAPSACK["risks"])
        assert bnb.nodes_explored < exhaustive_nodes

    def test_node_cap_still_feasible(self):
        problem = make_problem(**KNAPSACK)
        solution = solve_branch_and_bound(problem, max_nodes=3)
        assert solution.risk <= KNAPSACK["budget"] + 1e-9


class TestSolverConsistency:
    def test_exact_solvers_beat_heuristics(self):
        problem_args = dict(
            risks=[0.08, 0.12, 0.25, 0.18, 0.05],
            savings=[2.0, 1.0, 3.0, 2.5, 0.7],
            budget=0.3,
        )
        exact = solve_exhaustive(make_problem(**problem_args))
        for solver in (solve_greedy, solve_branch_and_bound):
            solution = solver(make_problem(**problem_args))
            assert solution.cost >= exact.cost - 1e-9
