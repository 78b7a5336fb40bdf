"""Baseline system kernels: interface, measurement and relative ordering."""

import pytest

from figures.baselines import ALL_SYSTEMS, PhaseName
from figures.baselines.civitas import CivitasSystem
from figures.baselines.swisspost import SwissPostSystem
from figures.baselines.voteagain import VoteAgainSystem
from figures.baselines.votegral import TripCoreSystem
from repro.crypto.modp_group import testing_group


@pytest.fixture(scope="module")
def fast_group():
    return testing_group()


class TestInterface:
    def test_all_four_systems_registered(self):
        assert set(ALL_SYSTEMS) == {"SwissPost", "VoteAgain", "TRIP-Core", "Civitas"}

    def test_only_civitas_is_quadratic(self):
        assert CivitasSystem.quadratic_tally
        assert not SwissPostSystem.quadratic_tally
        assert not VoteAgainSystem.quadratic_tally
        assert not TripCoreSystem.quadratic_tally

    def test_four_talliers_everywhere(self):
        for cls in ALL_SYSTEMS.values():
            assert cls.num_talliers == 4

    def test_civitas_defaults_to_large_modulus_group(self):
        assert CivitasSystem().group.name == "modp-2048"

    def test_civitas_group_override_for_tests(self, fast_group):
        assert CivitasSystem(fast_group).group is fast_group


class TestMeasurement:
    def test_measure_phase_returns_positive_latency(self, fast_group):
        system = TripCoreSystem(fast_group)
        measurement = system.measure_phase(PhaseName.REGISTRATION, 5)
        assert measurement.wall_seconds > 0
        assert measurement.per_voter_seconds > 0
        assert measurement.num_voters == 5

    def test_estimate_small_population_is_direct(self, fast_group):
        system = VoteAgainSystem(fast_group)
        measurement = system.estimate_phase(PhaseName.VOTING, 10, sample_voters=20)
        assert not measurement.extrapolated

    def test_estimate_large_population_is_extrapolated(self, fast_group):
        system = VoteAgainSystem(fast_group)
        measurement = system.estimate_phase(PhaseName.TALLY, 10_000, sample_voters=10)
        assert measurement.extrapolated
        assert measurement.wall_seconds > 0

    def test_quadratic_extrapolation_dominates_linear(self, fast_group):
        """Civitas' extrapolated tally must grow super-linearly."""
        system = CivitasSystem(fast_group)
        model = system.fit_cost_model(PhaseName.TALLY, sample_voters=16)
        assert model.per_pair_seconds > 0
        assert model.predict(1000) / model.predict(100) > 20

    def test_linear_extrapolation_scales_linearly(self, fast_group):
        system = TripCoreSystem(fast_group)
        model = system.fit_cost_model(PhaseName.TALLY, sample_voters=10)
        ratio = model.predict(1000) / model.predict(100)
        assert 9 <= ratio <= 11


class TestRelativeOrdering:
    """The qualitative relations of Figures 5a/5b (who is faster than whom)."""

    def test_registration_ordering(self, fast_group):
        """VoteAgain < TRIP-Core < SwissPost (all on the same group)."""
        voteagain = VoteAgainSystem(fast_group).measure_phase(PhaseName.REGISTRATION, 20)
        trip = TripCoreSystem(fast_group).measure_phase(PhaseName.REGISTRATION, 20)
        swisspost = SwissPostSystem(fast_group).measure_phase(PhaseName.REGISTRATION, 20)
        assert voteagain.wall_seconds < trip.wall_seconds < swisspost.wall_seconds

    def test_civitas_registration_slowest(self, fast_group):
        """Even on the same group, Civitas' multi-teller issuance costs the most."""
        trip = TripCoreSystem(fast_group).measure_phase(PhaseName.REGISTRATION, 20)
        civitas = CivitasSystem(fast_group).measure_phase(PhaseName.REGISTRATION, 20)
        assert civitas.wall_seconds > trip.wall_seconds

    def test_voting_trip_is_cheapest(self, fast_group):
        """TRIP-Core charges fewer exponentiations per vote than any other system."""

        def exps_per_vote(cls) -> float:
            system = cls(fast_group)
            system.measure_phase(PhaseName.VOTING, 20)
            return system.exps_charged / 20

        trip = exps_per_vote(TripCoreSystem)
        for cls in (SwissPostSystem, VoteAgainSystem, CivitasSystem):
            assert trip < exps_per_vote(cls), cls.name

    def test_tally_ordering_voteagain_trip_swisspost(self, fast_group):
        voteagain = VoteAgainSystem(fast_group).measure_phase(PhaseName.TALLY, 30)
        trip = TripCoreSystem(fast_group).measure_phase(PhaseName.TALLY, 30)
        swisspost = SwissPostSystem(fast_group).measure_phase(PhaseName.TALLY, 30)
        assert voteagain.wall_seconds < trip.wall_seconds < swisspost.wall_seconds

    def test_civitas_tally_orders_of_magnitude_slower_at_scale(self, fast_group):
        civitas = CivitasSystem(fast_group).estimate_phase(PhaseName.TALLY, 10_000, sample_voters=16)
        trip = TripCoreSystem(fast_group).estimate_phase(PhaseName.TALLY, 10_000, sample_voters=16)
        assert civitas.wall_seconds > 50 * trip.wall_seconds
