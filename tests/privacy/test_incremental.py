"""Tests for the fast incremental risk evaluator."""

import numpy as np
import pytest

from repro.privacy.adversary import NaiveBayesAdversary
from repro.privacy.incremental import IncrementalRiskEvaluator
from repro.privacy.risk import RiskError, RiskMetric
from tests.privacy.reference_risk import RiskModel


@pytest.fixture(scope="module")
def nb_adversary(warfarin):
    return NaiveBayesAdversary(
        warfarin.X, warfarin.domain_sizes, warfarin.sensitive_indices
    )


@pytest.fixture()
def evaluator(warfarin, nb_adversary):
    return IncrementalRiskEvaluator(
        nb_adversary, warfarin.X[:200], warfarin.sensitive_indices
    )


class TestExactness:
    """Incremental results must equal the from-scratch RiskModel."""

    def test_matches_risk_model(self, warfarin, nb_adversary, evaluator):
        model = RiskModel(
            adversary=nb_adversary,
            evaluation_rows=warfarin.X[:200],
            sensitive_columns=warfarin.sensitive_indices,
        )
        race = warfarin.feature_index("race")
        age = warfarin.feature_index("age_decade")
        evaluator.push(race)
        assert evaluator.risk() == pytest.approx(model.risk([race]), abs=1e-10)
        evaluator.push(age)
        assert evaluator.risk() == pytest.approx(model.risk([race, age]), abs=1e-10)

    def test_peek_matches_push(self, warfarin, evaluator):
        race = warfarin.feature_index("race")
        peeked = evaluator.peek_risk(race)
        evaluator.push(race)
        assert evaluator.risk() == pytest.approx(peeked, abs=1e-12)

    def test_peek_does_not_mutate(self, warfarin, evaluator):
        before = evaluator.risk()
        evaluator.peek_risk(warfarin.feature_index("race"))
        assert evaluator.risk() == before
        assert evaluator.disclosed == ()

    def test_pop_restores_exactly(self, warfarin, evaluator):
        race = warfarin.feature_index("race")
        baseline = evaluator.risk()
        evaluator.push(race)
        evaluator.pop()
        assert evaluator.risk() == pytest.approx(baseline, abs=1e-12)

    def test_risk_of_set_matches_stack(self, warfarin, evaluator):
        race = warfarin.feature_index("race")
        weight = warfarin.feature_index("weight_bin")
        evaluator.push(race)
        evaluator.push(weight)
        assert evaluator.risk_of_set([race, weight]) == pytest.approx(
            evaluator.risk(), abs=1e-12
        )


class TestStackSemantics:
    def test_double_push_rejected(self, warfarin, evaluator):
        race = warfarin.feature_index("race")
        evaluator.push(race)
        with pytest.raises(RiskError):
            evaluator.push(race)

    def test_pop_empty_rejected(self, evaluator):
        with pytest.raises(RiskError):
            evaluator.pop()

    def test_reset(self, warfarin, evaluator):
        evaluator.push(warfarin.feature_index("race"))
        evaluator.push(warfarin.feature_index("gender"))
        evaluator.reset()
        assert evaluator.disclosed == ()
        assert evaluator.risk() == pytest.approx(0.0, abs=1e-9)

    def test_out_of_range_rejected(self, evaluator):
        with pytest.raises(RiskError):
            evaluator.push(99)


class TestSensitiveDisclosure:
    def test_self_disclosure_is_total_loss(self, warfarin, evaluator):
        for sensitive in warfarin.sensitive_indices:
            evaluator.push(sensitive)
        assert evaluator.risk() == pytest.approx(1.0, abs=1e-6)

    def test_one_of_two_is_partial(self, warfarin, evaluator):
        evaluator.push(warfarin.sensitive_indices[0])
        assert 0.4 <= evaluator.risk() <= 0.8


class TestBackground:
    def test_background_features_free(self, warfarin, nb_adversary):
        race = warfarin.feature_index("race")
        evaluator = IncrementalRiskEvaluator(
            nb_adversary, warfarin.X[:200], warfarin.sensitive_indices,
            background_columns=[race],
        )
        evaluator.push(race)
        assert evaluator.risk() == pytest.approx(0.0)

    def test_sensitive_background_rejected(self, warfarin, nb_adversary):
        with pytest.raises(RiskError):
            IncrementalRiskEvaluator(
                nb_adversary, warfarin.X[:100], warfarin.sensitive_indices,
                background_columns=[warfarin.sensitive_indices[0]],
            )


class TestRiskFunctionAdapter:
    def test_set_queries_sync_stack(self, warfarin, evaluator):
        risk = evaluator.as_risk_function()
        race = warfarin.feature_index("race")
        age = warfarin.feature_index("age_decade")
        value_ab = risk([race, age])
        value_a = risk([race])
        value_ab_again = risk([age, race])
        assert value_ab == pytest.approx(value_ab_again, abs=1e-12)
        # The factorised adversary's risk is only approximately monotone
        # (see DESIGN.md), so assert boundedness rather than ordering.
        assert 0.0 <= value_a <= 1.0 and 0.0 <= value_ab <= 1.0

    def test_adapter_matches_risk_of_set(self, warfarin, evaluator):
        risk = evaluator.as_risk_function()
        columns = [warfarin.feature_index("race"),
                   warfarin.feature_index("weight_bin")]
        assert risk(columns) == pytest.approx(
            evaluator.risk_of_set(columns), abs=1e-10
        )

    def test_adapter_handles_disjoint_jumps(self, warfarin, evaluator):
        risk = evaluator.as_risk_function()
        a = warfarin.feature_index("race")
        b = warfarin.feature_index("gender")
        c = warfarin.feature_index("smoker")
        first = risk([a, b])
        second = risk([c])        # disjoint from the current stack
        third = risk([a, b])      # back again
        assert first == pytest.approx(third, abs=1e-12)
        assert second == pytest.approx(evaluator.risk_of_set([c]), abs=1e-10)


class TestMetrics:
    @pytest.mark.parametrize("metric", list(RiskMetric))
    def test_metrics_bounded(self, warfarin, nb_adversary, metric):
        evaluator = IncrementalRiskEvaluator(
            nb_adversary, warfarin.X[:150], warfarin.sensitive_indices,
            metric=metric,
        )
        evaluator.push(warfarin.feature_index("race"))
        assert 0.0 <= evaluator.risk() <= 1.0

    def test_non_nb_adversary_rejected(self, warfarin):
        from repro.privacy.adversary import ExactJointAdversary

        exact = ExactJointAdversary(
            warfarin.X, warfarin.domain_sizes, warfarin.sensitive_indices
        )
        with pytest.raises(RiskError):
            IncrementalRiskEvaluator(
                exact, warfarin.X[:50], warfarin.sensitive_indices
            )


class TestSequentialComposition:
    """Edge cases the serving-side budget ledger leans on.

    The ledger prices a client's *cumulative* disclosed set, growing
    one request at a time -- so the incremental view must agree with
    the exact joint price at every prefix, the empty set must be the
    zero point, and re-disclosure must be a no-op in price.
    """

    def test_empty_disclosure_set_risk(self, warfarin, nb_adversary,
                                       evaluator):
        model = RiskModel(
            adversary=nb_adversary,
            evaluation_rows=warfarin.X[:200],
            sensitive_columns=warfarin.sensitive_indices,
        )
        assert evaluator.disclosed == ()
        assert evaluator.risk() == pytest.approx(model.risk([]), abs=1e-10)
        assert evaluator.risk_of_set([]) == pytest.approx(
            evaluator.risk(), abs=1e-12
        )

    def test_redisclosing_charged_feature_is_free(self, warfarin,
                                                  evaluator):
        race = warfarin.feature_index("race")
        age = warfarin.feature_index("age_decade")
        evaluator.push(race)
        evaluator.push(age)
        charged = evaluator.risk()
        # the cumulative set does not grow, so neither does the price
        assert evaluator.risk_of_set([race, age, race]) == pytest.approx(
            charged, abs=1e-12
        )
        with pytest.raises(RiskError):
            evaluator.push(race)  # a literal re-push is a caller bug
        assert evaluator.risk() == pytest.approx(charged, abs=1e-12)

    def test_incremental_matches_exact_joint_at_every_prefix(
        self, warfarin, nb_adversary, evaluator
    ):
        model = RiskModel(
            adversary=nb_adversary,
            evaluation_rows=warfarin.X[:200],
            sensitive_columns=warfarin.sensitive_indices,
        )
        sequence = [warfarin.feature_index(name) for name in
                    ("race", "age_decade", "weight_bin", "smoker")]
        disclosed = []
        for feature in sequence:
            evaluator.push(feature)
            disclosed.append(feature)
            assert evaluator.risk() == pytest.approx(
                model.risk(list(disclosed)), abs=1e-10
            ), f"diverged at prefix {disclosed}"

    def test_composition_order_does_not_change_the_price(self, warfarin,
                                                         evaluator):
        a = warfarin.feature_index("race")
        b = warfarin.feature_index("smoker")
        c = warfarin.feature_index("gender")
        forward = evaluator.risk_of_set([a, b, c])
        backward = evaluator.risk_of_set([c, b, a])
        assert forward == pytest.approx(backward, abs=1e-12)
