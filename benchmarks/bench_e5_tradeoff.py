"""E5 -- The headline trade-off: speedup vs privacy budget.

Reproduces the abstract's central claim: *"up to three orders of
magnitude improvement compared to pure SMC solutions with only a slight
increase in privacy risks."* Sweeps privacy budgets through the full
pipeline per classifier family and reports achieved risk, modeled
per-query cost and speedup over pure SMC.

The benchmarked kernel is one full disclosure optimization (greedy),
on a freshly fitted pipeline each round: a fitted pipeline prices each
disclosure set once, so reusing one would time cache hits.
"""

import pytest

from repro.api import PrivacyAwareClassifier
from repro.bench import Table
from repro.core import TradeoffAnalyzer

from conftest import bench_config

BUDGETS = [0.0, 0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]


def test_e5_tradeoff_curves(fitted_pipelines, warfarin_train_test, benchmark):
    headline = {}
    for kind, pipeline in fitted_pipelines.items():
        points = TradeoffAnalyzer(pipeline).sweep(BUDGETS)
        table = Table(
            f"E5: speedup vs privacy budget ({kind})",
            ["budget", "risk", "|S|", "modeled cost (s)", "speedup"],
        )
        for point in points:
            table.add_row(
                [point.risk_budget, point.achieved_risk,
                 point.disclosed_count, point.cost_seconds, point.speedup]
            )
        table.print()
        headline[kind] = points

        # Budget always respected; speedup monotone along the sweep.
        for point in points:
            assert point.achieved_risk <= point.risk_budget + 1e-9
        speedups = [p.speedup for p in points]
        assert all(a <= b + 1e-9 for a, b in zip(speedups, speedups[1:]))

    # The headline: at slight risk (<=0.05) every family beats pure SMC;
    # at full disclosure the best family exceeds three orders of
    # magnitude and every family exceeds two.
    for kind, points in headline.items():
        slight = next(p for p in points if p.risk_budget == 0.05)
        assert slight.speedup > 1.3, kind
        full = points[-1]
        assert full.speedup > 100, kind
    assert max(points[-1].speedup for points in headline.values()) > 1000

    train, _ = warfarin_train_test
    benchmark.pedantic(
        lambda pipeline: pipeline.select_disclosure(0.05, solver="greedy"),
        setup=lambda: ((
            PrivacyAwareClassifier(bench_config("naive_bayes")).fit(train),
        ), {}),
        rounds=20,
    )
