"""Cross-module integration tests: the full paper workflow."""

import numpy as np
import pytest

from repro.api import PipelineConfig, PrivacyAwareClassifier, TradeoffAnalyzer
from repro.classifiers import accuracy
from repro.data import generate_adult_like, generate_cancer_like, train_test_split
from repro.privacy import NaiveBayesAdversary
from repro.selection import solve_branch_and_bound, solve_greedy
from tests.privacy.reference_risk import RiskModel


def _fast_config(kind):
    return PipelineConfig(
        classifier=kind, paillier_bits=384, dgk_bits=192,
        risk_sample_rows=120, linear_iterations=120,
    )


class TestWarfarinWorkflow:
    """The paper's personalised-medicine scenario end to end."""

    @pytest.mark.parametrize("kind", ["linear", "naive_bayes", "tree"])
    def test_full_pipeline(self, warfarin_split, kind):
        train, test = warfarin_split
        pac = PrivacyAwareClassifier(_fast_config(kind)).fit(train)
        solution = pac.select_disclosure(risk_budget=0.05)

        # 1. The privacy budget held.
        assert solution.risk <= 0.05 + 1e-9
        # 2. Disclosure bought real speedup.
        assert pac.speedup() > 1.0
        # 3. Live secure classification agrees with the quantised model.
        ctx = pac.make_context(seed=1)
        row = test.X[0]
        assert pac.classify(row, ctx=ctx) == pac.secure_model.predict_quantized(row)
        # 4. Plain accuracy is clinically sensible.
        assert accuracy(test.y, pac.predict_plain(test.X)) > 0.75

    def test_secure_and_plain_accuracy_match_on_sample(self, warfarin_split):
        train, test = warfarin_split
        pac = PrivacyAwareClassifier(_fast_config("naive_bayes")).fit(train)
        pac.select_disclosure(0.1)
        ctx = pac.make_context(seed=2)
        sample = test.X[:6]
        secure_labels = [pac.classify(row, ctx=ctx) for row in sample]
        quantized = [pac.secure_model.predict_quantized(row) for row in sample]
        assert secure_labels == quantized


class TestOtherDatasets:
    def test_adult_like_pipeline(self):
        data = generate_adult_like(n_samples=2500, seed=1)
        train, test = train_test_split(data, seed=0)
        pac = PrivacyAwareClassifier(_fast_config("naive_bayes")).fit(train)
        solution = pac.select_disclosure(0.1)
        assert solution.risk <= 0.1 + 1e-9
        assert pac.speedup() >= 1.0

    def test_cancer_like_pipeline(self):
        data = generate_cancer_like(n_samples=500, seed=2)
        train, test = train_test_split(data, seed=0)
        pac = PrivacyAwareClassifier(_fast_config("tree")).fit(train)
        pac.select_disclosure(0.2)
        ctx = pac.make_context(seed=3)
        row = test.X[0]
        assert pac.classify(row, ctx=ctx) == pac.secure_model.predict_quantized(row)


class TestOptimizerAgainstRiskModel:
    """Solvers driven by the real (incremental) risk function must agree
    with the standalone RiskModel on what they selected."""

    def test_solution_risk_consistent(self, warfarin_split):
        train, _ = warfarin_split
        pac = PrivacyAwareClassifier(_fast_config("naive_bayes")).fit(train)
        solution = pac.select_disclosure(0.08)

        adversary = NaiveBayesAdversary(
            train.X, train.domain_sizes, train.sensitive_indices
        )
        rng = np.random.default_rng(pac.config.seed)
        sample = train.X[rng.permutation(train.n_samples)[:120]]
        model = RiskModel(
            adversary=adversary,
            evaluation_rows=sample,
            sensitive_columns=train.sensitive_indices,
            background_columns=tuple(train.public_indices),
        )
        assert model.risk(solution.disclosed) == pytest.approx(
            solution.risk, abs=1e-9
        )

    def test_exact_solver_feasible_on_real_problem(self, warfarin_split):
        train, _ = warfarin_split
        pac = PrivacyAwareClassifier(_fast_config("tree")).fit(train)
        problem = pac.build_problem(0.1)
        greedy = solve_greedy(problem)
        bnb = solve_branch_and_bound(problem)
        assert bnb.cost <= greedy.cost + 1e-12
        assert bnb.risk <= 0.1 + 1e-9


class TestTradeoffHeadline:
    def test_shape_of_curve(self, warfarin_split):
        train, _ = warfarin_split
        pac = PrivacyAwareClassifier(_fast_config("tree")).fit(train)
        points = TradeoffAnalyzer(pac).sweep([0.0, 0.05, 0.5, 1.0])
        # Slight risk -> real speedup; full disclosure -> orders of
        # magnitude (the abstract's headline claim).
        assert points[1].speedup > points[0].speedup
        assert points[3].speedup > 100
        assert points[1].achieved_risk <= 0.05 + 1e-9
