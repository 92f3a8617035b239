"""Tests for the Bayesian adversary models."""

import numpy as np
import pytest

from repro.data.warfarin import RACES
from repro.privacy.adversary import (
    AdversaryError,
    ExactJointAdversary,
    NaiveBayesAdversary,
)


@pytest.fixture(scope="module")
def warfarin_adversaries(warfarin):
    sens = warfarin.sensitive_indices
    return {
        "nb": NaiveBayesAdversary(warfarin.X, warfarin.domain_sizes, sens),
        "exact": ExactJointAdversary(warfarin.X, warfarin.domain_sizes, sens),
    }


class TestPosteriorsAgree:
    def test_single_evidence_agreement(self, warfarin, warfarin_adversaries):
        race = warfarin.feature_index("race")
        vkorc1 = warfarin.feature_index("vkorc1")
        for value in range(4):
            posteriors = [
                adv.posterior(vkorc1, {race: value})
                for adv in warfarin_adversaries.values()
            ]
            for other in posteriors[1:]:
                assert np.allclose(posteriors[0], other, atol=0.05)

    def test_priors_agree(self, warfarin, warfarin_adversaries):
        vkorc1 = warfarin.feature_index("vkorc1")
        priors = [adv.prior(vkorc1) for adv in warfarin_adversaries.values()]
        for other in priors[1:]:
            assert np.allclose(priors[0], other, atol=0.03)


class TestSemantics:
    def test_race_disclosure_shifts_genotype_belief(self, warfarin,
                                                    warfarin_adversaries):
        adv = warfarin_adversaries["nb"]
        race = warfarin.feature_index("race")
        vkorc1 = warfarin.feature_index("vkorc1")
        asian = adv.posterior(vkorc1, {race: RACES.index("asian")})
        black = adv.posterior(vkorc1, {race: RACES.index("black")})
        assert asian[2] > 0.6   # AA likely for East-Asian patients
        assert black[0] > 0.6   # GG likely for African-ancestry patients

    def test_more_evidence_sharpens_exact_posterior(self, warfarin,
                                                    warfarin_adversaries):
        adv = warfarin_adversaries["exact"]
        vkorc1 = warfarin.feature_index("vkorc1")
        race = warfarin.feature_index("race")
        age = warfarin.feature_index("age_decade")
        prior_max = adv.prior(vkorc1).max()
        single = adv.posterior(vkorc1, {race: 1}).max()
        assert single > prior_max

    def test_self_disclosure_point_mass(self, warfarin, warfarin_adversaries):
        vkorc1 = warfarin.feature_index("vkorc1")
        for adv in warfarin_adversaries.values():
            posterior = adv.posterior(vkorc1, {vkorc1: 2})
            assert posterior.tolist() == [0.0, 0.0, 1.0]

    def test_posteriors_are_distributions(self, warfarin, warfarin_adversaries):
        vkorc1 = warfarin.feature_index("vkorc1")
        evidence = {warfarin.feature_index("race"): 0,
                    warfarin.feature_index("gender"): 1}
        for adv in warfarin_adversaries.values():
            posterior = adv.posterior(vkorc1, evidence)
            assert posterior.sum() == pytest.approx(1.0)
            assert (posterior >= 0).all()


class TestValidation:
    def test_non_sensitive_target_rejected(self, warfarin, warfarin_adversaries):
        race = warfarin.feature_index("race")
        for adv in warfarin_adversaries.values():
            with pytest.raises(AdversaryError):
                adv.posterior(race, {})

    def test_no_sensitive_columns_rejected(self, warfarin):
        with pytest.raises(AdversaryError):
            NaiveBayesAdversary(warfarin.X, warfarin.domain_sizes, [])

    def test_exact_joint_cell_cap(self, warfarin):
        adv = ExactJointAdversary(
            warfarin.X, warfarin.domain_sizes,
            warfarin.sensitive_indices, max_cells=10,
        )
        vkorc1 = warfarin.feature_index("vkorc1")
        with pytest.raises(AdversaryError, match="cells"):
            adv.posterior(vkorc1, {0: 0, 1: 0})

    def test_point_mass_value_validated(self, warfarin, warfarin_adversaries):
        vkorc1 = warfarin.feature_index("vkorc1")
        with pytest.raises(AdversaryError):
            warfarin_adversaries["nb"].posterior(vkorc1, {vkorc1: 99})
