"""E13 -- The dual problem: minimum disclosure meeting a latency SLA.

A deployment-facing extension of the primal optimization: given a
per-query latency target, how little privacy must be spent to meet it?
Sweeps SLA targets (as fractions of the pure-SMC cost) per classifier
family, reporting the minimum achievable risk from the greedy dual
solver (validated against the exhaustive dual optimum).

The benchmarked kernel is one greedy dual solve, on a freshly fitted
pipeline each round: a fitted pipeline prices each disclosure set once,
so reusing one would time cache hits.
"""

import pytest

from repro.api import PrivacyAwareClassifier
from repro.bench import Table
from repro.selection.dual import solve_dual_exhaustive, solve_dual_greedy

from conftest import bench_config

SLA_FRACTIONS = (0.9, 0.5, 0.25, 0.1, 0.01)


def test_e13_dual_sla_sweep(fitted_pipelines, warfarin_train_test, benchmark):
    table = Table(
        "E13: minimum risk to meet a latency SLA (fraction of pure SMC)",
        ["classifier", "SLA fraction", "target (s)", "risk (greedy)",
         "risk (exact)", "|S|"],
    )
    for kind, pipeline in fitted_pipelines.items():
        pure = pipeline.pure_smc_cost()
        previous_risk = -1.0
        for fraction in SLA_FRACTIONS:
            target = pure * fraction
            problem = pipeline.build_problem(1.0)
            greedy = solve_dual_greedy(problem, cost_budget=target)
            exact = solve_dual_exhaustive(
                pipeline.build_problem(1.0), cost_budget=target
            )
            table.add_row([kind, fraction, target, greedy.risk, exact.risk,
                           len(greedy.disclosed)])

            assert greedy.cost <= target + 1e-9
            assert exact.risk <= greedy.risk + 1e-9
            # Tighter SLAs can only require more risk.
            assert greedy.risk >= previous_risk - 0.05
            previous_risk = greedy.risk
    table.print()

    train, _ = warfarin_train_test

    def fresh_problem():
        pipeline = PrivacyAwareClassifier(bench_config("tree")).fit(train)
        cost_budget = pipeline.pure_smc_cost() * 0.25
        return (pipeline.build_problem(1.0),), {"cost_budget": cost_budget}

    benchmark.pedantic(solve_dual_greedy, setup=fresh_problem, rounds=20)
