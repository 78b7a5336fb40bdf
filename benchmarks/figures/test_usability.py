"""The §7.5 usability-study model."""

import pytest

from figures.usability.behavior import BehaviorProfile, PUBLISHED_STUDY, VoterBehaviorModel
from figures.usability.study import UsabilityStudy, run_published_study


class TestBehaviorModel:
    def test_published_profile_rates(self):
        assert PUBLISHED_STUDY.registration_success_rate == pytest.approx(0.83)
        assert PUBLISHED_STUDY.detection_rate_educated == pytest.approx(0.47)
        assert PUBLISHED_STUDY.detection_rate_uneducated == pytest.approx(0.10)
        assert PUBLISHED_STUDY.sus_mean == pytest.approx(70.4)

    def test_seeded_model_is_reproducible(self):
        a = VoterBehaviorModel(seed=3)
        b = VoterBehaviorModel(seed=3)
        assert [a.completes_registration() for _ in range(20)] == [
            b.completes_registration() for _ in range(20)
        ]

    def test_sus_scores_clamped(self):
        model = VoterBehaviorModel(profile=BehaviorProfile(sus_mean=99, sus_std=50), seed=1)
        assert all(0 <= model.sus_score() <= 100 for _ in range(50))

    def test_detection_rate_reflects_education(self):
        model = VoterBehaviorModel(seed=5)
        educated = sum(model.detects_malicious_kiosk(True) for _ in range(2000)) / 2000
        model = VoterBehaviorModel(seed=5)
        uneducated = sum(model.detects_malicious_kiosk(False) for _ in range(2000)) / 2000
        assert educated == pytest.approx(0.47, abs=0.05)
        assert uneducated == pytest.approx(0.10, abs=0.04)

    def test_fake_credential_count_nonnegative(self):
        model = VoterBehaviorModel(seed=9)
        assert all(model.num_fake_credentials() >= 0 for _ in range(50))


class TestStudySimulation:
    @pytest.fixture(scope="class")
    def results(self):
        return run_published_study(seed=7)

    def test_participant_count(self, results):
        assert results.participants == 150

    def test_success_rate_near_published_value(self, results):
        assert results.success_rate == pytest.approx(0.83, abs=0.08)

    def test_sus_near_published_value(self, results):
        assert results.sus_mean == pytest.approx(70.4, abs=5.0)

    def test_detection_rates_ordered(self, results):
        assert results.detection_rate_educated > results.detection_rate_uneducated

    def test_kiosk_survival_is_small_for_fifty_voters(self, results):
        assert results.kiosk_survival_probability(50) < 0.2
        assert results.kiosk_survival_probability(1000) < 1e-10

    def test_smaller_study_runs(self):
        results = UsabilityStudy(participants=20, seed=1).run()
        assert results.participants == 20
        assert 0 <= results.success_rate <= 1
