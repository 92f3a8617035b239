"""Tests for privacy-risk metrics and the RiskModel."""

import numpy as np
import pytest

from repro.privacy.adversary import ExactJointAdversary, NaiveBayesAdversary
from repro.privacy.risk import (
    RiskError,
    RiskMetric,
    entropy_loss_risk,
    inference_accuracy_risk,
    max_posterior_confidence,
)
from tests.privacy.reference_risk import RiskModel


@pytest.fixture(scope="module")
def risk_model(warfarin):
    adversary = NaiveBayesAdversary(
        warfarin.X, warfarin.domain_sizes, warfarin.sensitive_indices
    )
    return RiskModel(
        adversary=adversary,
        evaluation_rows=warfarin.X[:300],
        sensitive_columns=warfarin.sensitive_indices,
    )


class TestMetricHelpers:
    def test_max_posterior_confidence(self):
        posteriors = np.array([[0.9, 0.1], [0.5, 0.5]])
        assert max_posterior_confidence(posteriors) == pytest.approx(0.7)

    def test_entropy_loss(self):
        uniform = np.array([[0.5, 0.5]])
        point = np.array([[1.0, 0.0]])
        assert entropy_loss_risk(uniform) == pytest.approx(1.0)
        assert entropy_loss_risk(point) == pytest.approx(0.0, abs=1e-6)

    def test_inference_accuracy(self):
        posteriors = np.array([[0.9, 0.1], [0.2, 0.8], [0.6, 0.4]])
        truths = np.array([0, 1, 1])
        assert inference_accuracy_risk(posteriors, truths) == pytest.approx(2 / 3)


class TestRiskModel:
    def test_empty_set_is_zero(self, risk_model):
        assert risk_model.risk([]) == 0.0

    def test_risk_in_unit_interval(self, risk_model, warfarin):
        race = warfarin.feature_index("race")
        value = risk_model.risk([race])
        assert 0.0 <= value <= 1.0

    def test_informative_feature_raises_risk(self, risk_model, warfarin):
        race = warfarin.feature_index("race")
        gender = warfarin.feature_index("gender")
        assert risk_model.risk([race]) > risk_model.risk([gender])

    def test_caching_returns_same_value(self, risk_model, warfarin):
        race = warfarin.feature_index("race")
        assert risk_model.risk([race]) == risk_model.risk([race])

    def test_order_invariance(self, risk_model, warfarin):
        a = warfarin.feature_index("race")
        b = warfarin.feature_index("age_decade")
        assert risk_model.risk([a, b]) == risk_model.risk([b, a])

    def test_sensitive_disclosure_maximal(self, warfarin):
        adversary = NaiveBayesAdversary(
            warfarin.X, warfarin.domain_sizes, warfarin.sensitive_indices
        )
        model = RiskModel(
            adversary=adversary,
            evaluation_rows=warfarin.X[:200],
            sensitive_columns=warfarin.sensitive_indices,
        )
        both = model.risk(warfarin.sensitive_indices)
        assert both == pytest.approx(1.0)
        one = model.risk([warfarin.sensitive_indices[0]])
        assert 0.45 <= one <= 0.75  # one of two attributes fully lost

    def test_out_of_range_column_rejected(self, risk_model):
        with pytest.raises(RiskError):
            risk_model.risk([99])

    def test_generic_adversary_path(self, warfarin):
        adversary = ExactJointAdversary(
            warfarin.X, warfarin.domain_sizes, warfarin.sensitive_indices
        )
        model = RiskModel(
            adversary=adversary,
            evaluation_rows=warfarin.X[:50],
            sensitive_columns=warfarin.sensitive_indices,
        )
        race = warfarin.feature_index("race")
        assert 0.0 < model.risk([race]) < 1.0


class TestBackgroundKnowledge:
    def test_background_columns_are_free(self, warfarin):
        adversary = NaiveBayesAdversary(
            warfarin.X, warfarin.domain_sizes, warfarin.sensitive_indices
        )
        race = warfarin.feature_index("race")
        model = RiskModel(
            adversary=adversary,
            evaluation_rows=warfarin.X[:200],
            sensitive_columns=warfarin.sensitive_indices,
            background_columns=[race],
        )
        assert model.risk([race]) == pytest.approx(0.0)

    def test_background_lowers_marginal_value(self, warfarin):
        adversary = NaiveBayesAdversary(
            warfarin.X, warfarin.domain_sizes, warfarin.sensitive_indices
        )
        race = warfarin.feature_index("race")
        age = warfarin.feature_index("age_decade")
        without = RiskModel(
            adversary=adversary, evaluation_rows=warfarin.X[:200],
            sensitive_columns=warfarin.sensitive_indices,
        )
        with_bg = RiskModel(
            adversary=adversary, evaluation_rows=warfarin.X[:200],
            sensitive_columns=warfarin.sensitive_indices,
            background_columns=[race],
        )
        # Against a baseline that already knows race, disclosing
        # race+age adds less than it does from scratch.
        assert with_bg.risk([age]) <= without.risk([race, age]) + 1e-9

    def test_sensitive_background_rejected(self, warfarin):
        adversary = NaiveBayesAdversary(
            warfarin.X, warfarin.domain_sizes, warfarin.sensitive_indices
        )
        with pytest.raises(RiskError):
            RiskModel(
                adversary=adversary, evaluation_rows=warfarin.X[:50],
                sensitive_columns=warfarin.sensitive_indices,
                background_columns=[warfarin.sensitive_indices[0]],
            )


class TestMetricVariants:
    @pytest.mark.parametrize("metric", list(RiskMetric))
    def test_all_metrics_monotone_on_self_disclosure(self, warfarin, metric):
        adversary = NaiveBayesAdversary(
            warfarin.X, warfarin.domain_sizes, warfarin.sensitive_indices
        )
        model = RiskModel(
            adversary=adversary,
            evaluation_rows=warfarin.X[:150],
            sensitive_columns=warfarin.sensitive_indices,
            metric=metric,
        )
        race_risk = model.risk([warfarin.feature_index("race")])
        full_risk = model.risk(warfarin.sensitive_indices)
        assert 0.0 <= race_risk <= full_risk <= 1.0
