"""The per-fit cost and risk memo under the disclosure optimizer.

A budget sweep asks for the same disclosure sets again and again; the
pipeline prices each set once per fit. These tests pin that the memo
changes no answer: costs are bit-identical to pricing the analytic
trace, risks match the from-scratch evaluation, a set has one price
whatever search path reached it, a refit forgets the old prices, and
the solvers' evaluation counts are those of the unmemoized pipeline.
"""

from collections import defaultdict

import pytest

from repro.api import PipelineConfig, PrivacyAwareClassifier
from repro.core import TradeoffAnalyzer
from repro.data import generate_warfarin
from repro.secure.base import SecureClassificationError

BUDGETS = (0.02, 0.05, 0.1, 0.2, 0.5)
SWEEPS = (("tree", "branch_and_bound"), ("naive_bayes", "greedy"))

# (risk, cost) evaluations each budget's solve makes on the warfarin
# split, recorded before the memo existed: the memo sits below the
# solvers' instrumented calls and must not change how many they make.
EVALUATION_COUNTS = {
    "tree": [(60, 89)] * 4 + [(44, 70)],
    "naive_bayes": [(20, 18)] * 4 + [(22, 21)],
}


def _config(kind):
    return PipelineConfig(
        classifier=kind,
        paillier_bits=384,
        dgk_bits=192,
        dgk_plaintext_bits=16,
        risk_sample_rows=150,
    )


def _recorded_sweep(pipeline, solver):
    """Sweep ``BUDGETS``, recording every priced set and every problem."""
    priced = {"risk": [], "cost": []}
    problems = []
    build_problem = pipeline.build_problem

    def recording(risk_budget):
        problem = build_problem(risk_budget)
        for name in priced:
            price = getattr(problem, name)

            def record(disclosure_set, price=price, log=priced[name]):
                value = price(disclosure_set)
                log.append((tuple(disclosure_set), value))
                return value

            setattr(problem, name, record)
        problems.append(problem)
        return problem

    pipeline.build_problem = recording
    TradeoffAnalyzer(pipeline).sweep(BUDGETS, solver=solver)
    return priced, problems


@pytest.fixture(scope="module", params=SWEEPS, ids=[k for k, _ in SWEEPS])
def swept(request, warfarin_split):
    kind, solver = request.param
    train, _ = warfarin_split
    pipeline = PrivacyAwareClassifier(_config(kind)).fit(train)
    priced, problems = _recorded_sweep(pipeline, solver)
    return kind, pipeline, priced, problems


def test_cost_is_the_priced_trace_bit_for_bit(swept):
    _, pipeline, priced, _ = swept
    cost_model = pipeline.config.cost_model
    for disclosure_set, cost in priced["cost"]:
        trace = pipeline.estimated_trace(disclosure_set)
        assert cost == cost_model.total_seconds(trace), disclosure_set


def test_risk_matches_from_scratch_evaluation(swept):
    _, pipeline, priced, _ = swept
    evaluator = pipeline.risk_evaluator
    for disclosure_set, risk in priced["risk"]:
        assert abs(risk - evaluator.risk_of_set(disclosure_set)) <= 1e-12


def test_each_set_has_one_price_whatever_the_search_path(swept):
    _, _, priced, _ = swept
    for name, log in priced.items():
        values = defaultdict(set)
        for disclosure_set, value in log:
            values[frozenset(disclosure_set)].add(value)
        assert len(log) > len(values), f"no {name} set was asked twice"
        drifting = [s for s, v in values.items() if len(v) > 1]
        assert drifting == [], name


def test_solver_evaluation_counts_unchanged(swept):
    kind, _, _, problems = swept
    counts = [
        (p.evaluation_counts["risk"], p.evaluation_counts["cost"])
        for p in problems
    ]
    assert counts == EVALUATION_COUNTS[kind]


def test_refit_starts_an_empty_memo(warfarin_split):
    train, _ = warfarin_split
    other = generate_warfarin(n_samples=800, seed=5)
    sets = [(), (3,), (3, 4), (0, 1, 2, 3, 4, 5)]

    def prices(pipeline):
        problem = pipeline.build_problem(1.0)
        return [(problem.risk(s), problem.cost(s)) for s in sets]

    pipeline = PrivacyAwareClassifier(_config("tree")).fit(train)
    first = prices(pipeline)
    refitted = prices(pipeline.fit(other))
    fresh = prices(PrivacyAwareClassifier(_config("tree")).fit(other))
    assert refitted == fresh
    assert refitted != first


def test_traces_stay_fresh_and_errors_are_not_stored(warfarin_split):
    train, _ = warfarin_split
    pipeline = PrivacyAwareClassifier(_config("naive_bayes")).fit(train)
    pipeline.estimated_cost_seconds((3,))
    assert pipeline.estimated_trace((3,)) is not pipeline.estimated_trace((3,))
    for _ in range(2):
        with pytest.raises(SecureClassificationError):
            pipeline.estimated_cost_seconds((99,))
