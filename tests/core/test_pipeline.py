"""Tests for the PrivacyAwareClassifier pipeline."""

import numpy as np
import pytest

from repro.api import PipelineConfig, PrivacyAwareClassifier, ReproError, RiskMetric
from repro.smc.cost_model import CostModel, NATIVE_1024
from repro.smc.network import NetworkProfile


def _config(kind="naive_bayes", **overrides):
    defaults = dict(
        classifier=kind,
        paillier_bits=384,
        dgk_bits=192,
        dgk_plaintext_bits=16,
        risk_sample_rows=150,
        linear_iterations=120,
    )
    defaults.update(overrides)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def fitted_nb(warfarin_split):
    train, _ = warfarin_split
    return PrivacyAwareClassifier(_config()).fit(train)


class TestConfig:
    def test_unknown_classifier_rejected(self):
        with pytest.raises(ReproError):
            PipelineConfig(classifier="svm")

    def test_defaults_valid(self):
        PipelineConfig()  # does not raise


class TestLifecycle:
    def test_fit_required(self):
        pac = PrivacyAwareClassifier(_config())
        with pytest.raises(ReproError):
            pac.pure_smc_cost()
        with pytest.raises(ReproError):
            pac.predict_plain(np.zeros((1, 12), dtype=int))
        with pytest.raises(ReproError):
            _ = pac.plain_model

    def test_select_required_before_classify(self, warfarin_split):
        train, test = warfarin_split
        pac = PrivacyAwareClassifier(_config()).fit(train)
        with pytest.raises(ReproError):
            pac.classify(test.X[0])

    def test_unknown_solver_rejected(self, fitted_nb):
        with pytest.raises(ReproError):
            fitted_nb.select_disclosure(0.1, solver="oracle")


class TestDisclosureSelection:
    def test_budget_respected(self, fitted_nb):
        for budget in (0.0, 0.05, 0.3):
            solution = fitted_nb.select_disclosure(budget)
            assert solution.risk <= budget + 1e-9

    def test_public_features_always_free(self, fitted_nb, warfarin_split):
        train, _ = warfarin_split
        solution = fitted_nb.select_disclosure(0.0)
        for index in train.public_indices:
            assert index in solution.disclosed

    def test_zero_budget_risk_zero(self, fitted_nb):
        solution = fitted_nb.select_disclosure(0.0)
        assert solution.risk == pytest.approx(0.0, abs=1e-9)

    def test_full_budget_discloses_everything(self, fitted_nb, warfarin_split):
        train, _ = warfarin_split
        solution = fitted_nb.select_disclosure(1.0)
        assert len(solution.disclosed) == train.n_features

    def test_speedup_grows_with_budget(self, fitted_nb):
        fitted_nb.select_disclosure(0.05)
        modest = fitted_nb.speedup()
        fitted_nb.select_disclosure(1.0)
        maximal = fitted_nb.speedup()
        assert maximal > modest > 1.0

    def test_bnb_no_worse_than_greedy(self, fitted_nb):
        greedy = fitted_nb.select_disclosure(0.1, solver="greedy")
        bnb = fitted_nb.select_disclosure(0.1, solver="branch_and_bound")
        assert bnb.cost <= greedy.cost + 1e-12


class TestCostViews:
    def test_pure_cost_exceeds_optimized(self, fitted_nb):
        fitted_nb.select_disclosure(0.1)
        assert fitted_nb.pure_smc_cost() > fitted_nb.optimized_cost()
        assert fitted_nb.speedup() > 1.0

    def test_estimated_trace_exposed(self, fitted_nb):
        trace = fitted_nb.estimated_trace(())
        assert trace.total_bytes > 0

    def test_custom_cost_model(self, warfarin_split):
        train, _ = warfarin_split
        wan = CostModel(hardware=NATIVE_1024, network=NetworkProfile.WAN)
        pac = PrivacyAwareClassifier(_config(cost_model=wan)).fit(train)
        lan_pac = PrivacyAwareClassifier(_config()).fit(train)
        assert pac.pure_smc_cost() > lan_pac.pure_smc_cost()


class TestClassification:
    @pytest.mark.parametrize("kind", ["linear", "naive_bayes", "tree"])
    def test_live_parity_each_classifier(self, warfarin_split, kind):
        train, test = warfarin_split
        pac = PrivacyAwareClassifier(_config(kind)).fit(train)
        pac.select_disclosure(0.1)
        ctx = pac.make_context(seed=99)
        for row in test.X[:2]:
            secure_label = pac.classify(row, ctx=ctx)
            expected = pac.secure_model.predict_quantized(row)
            assert secure_label == expected

    def test_context_cached(self, warfarin_split):
        train, test = warfarin_split
        pac = PrivacyAwareClassifier(_config()).fit(train)
        pac.select_disclosure(0.2)
        pac.classify(test.X[0])
        first = pac._context
        pac.classify(test.X[1])
        assert pac._context is first

    def test_explicit_disclosure_override(self, fitted_nb, warfarin_split):
        _, test = warfarin_split
        ctx = fitted_nb.make_context(seed=5)
        label = fitted_nb.classify(test.X[0], ctx=ctx, disclosure_set=[0, 1])
        assert label in (0, 1, 2)

    def test_predict_plain_batch(self, fitted_nb, warfarin_split):
        _, test = warfarin_split
        predictions = fitted_nb.predict_plain(test.X[:50])
        assert len(predictions) == 50

    def test_classify_batch(self, warfarin_split):
        train, test = warfarin_split
        pac = PrivacyAwareClassifier(_config()).fit(train)
        pac.select_disclosure(0.1)
        ctx = pac.make_context(seed=11)
        labels = pac.classify_batch(test.X[:3], ctx=ctx)
        expected = [
            pac.secure_model.predict_quantized(row) for row in test.X[:3]
        ]
        assert labels == expected

    def test_classify_batch_rejects_1d(self, fitted_nb, warfarin_split):
        _, test = warfarin_split
        with pytest.raises(ReproError):
            fitted_nb.classify_batch(test.X[0])


class TestAdversaryModels:
    def test_retired_adversary_model_field_is_gone(self):
        with pytest.raises(TypeError):
            PipelineConfig(adversary_model="naive_bayes")


class TestRiskMetricVariants:
    @pytest.mark.parametrize("metric", list(RiskMetric))
    def test_pipeline_runs_under_each_metric(self, warfarin_split, metric):
        train, _ = warfarin_split
        pac = PrivacyAwareClassifier(_config(risk_metric=metric)).fit(train)
        solution = pac.select_disclosure(0.1)
        assert 0.0 <= solution.risk <= 0.1 + 1e-9
