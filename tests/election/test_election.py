"""The full Votegral election pipeline."""

import random

import pytest

from repro.election import ElectionConfig, VotegralElection
from repro.errors import BigIntError, GatewayError, LedgerError, ProtocolError
from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.backends.sqlite import SQLiteBackend
from repro.ledger.records import RegistrationRecord


class TestElectionConfig:
    def test_voter_ids_are_unique_and_sized(self):
        config = ElectionConfig(num_voters=12)
        ids = config.voter_ids()
        assert len(ids) == 12
        assert len(set(ids)) == 12

    def test_group_factory(self):
        config = ElectionConfig()
        assert config.make_group().order > 2

    @pytest.mark.parametrize(
        "field,bad,error",
        [
            ("executor_spec", "thread:zero", ValueError),
            ("executor_spec", "cluster:zero", ValueError),
            ("board_spec", "batched:8:bogus", LedgerError),
            ("pipeline_spec", "stream:0", ValueError),
            ("pipeline_spec", "stream:32:4", ValueError),
            ("audit_spec", "batchd", ValueError),
            ("audit_spec", "stream:2:0", ValueError),
            ("audit_spec", "dist:0", ValueError),
            ("telemetry_spec", "jsonl:", ValueError),
            ("bigint_spec", "gmp", BigIntError),
            ("gateway_spec", "serve:70000", GatewayError),
        ],
    )
    def test_a_malformed_spec_fails_at_construction_naming_the_field(self, field, bad, error):
        # Before: the typo surfaced only when the phase that uses the spec ran —
        # for audit_spec, after setup, registration, voting and the whole tally.
        with pytest.raises(error, match=field):
            ElectionConfig(**{field: bad})


class TestFullElection:
    def test_tally_matches_intent(self):
        config = ElectionConfig(num_voters=5, num_options=3, proof_rounds=2, num_mixers=2)
        report = VotegralElection(config).run()
        assert report.counts_match_intent
        assert report.universally_verified
        assert report.result.num_counted == 5

    def test_fake_ballots_inflate_ledger_not_tally(self):
        config = ElectionConfig(num_voters=4, num_options=2, proof_rounds=2, num_mixers=2)
        election = VotegralElection(config)
        election.run_setup()
        election.run_registration()
        election.run_voting(fake_vote_probability=1.0)
        result = election.run_tally()
        assert result.num_ballots_on_ledger == 8
        assert result.num_counted == 4

    def test_explicit_choices(self):
        config = ElectionConfig(num_voters=3, num_options=2, proof_rounds=2, num_mixers=2)
        election = VotegralElection(config)
        choices = {voter_id: 1 for voter_id in config.voter_ids()}
        report = election.run(choices=choices)
        assert report.result.counts == {0: 0, 1: 3}

    def test_tally_before_voting_raises(self):
        election = VotegralElection(ElectionConfig(num_voters=2))
        election.run_setup()
        with pytest.raises(ProtocolError):
            election.run_tally()

    def test_register_voter_keeps_nothing_per_voter(self):
        """One registrar site per election, opened with the first voter; the
        outcomes and clients are ``run_registration``'s business."""
        config = ElectionConfig(num_voters=3, fake_credentials_per_voter=2)
        election = VotegralElection(config)
        election.run_setup()
        assert election._session is None
        first = election.register_voter("voter-0002")
        site = election._session
        second = election.register_voter("voter-0000", activate=False)
        assert election._session is site
        assert (first.ledger_seq, second.ledger_seq) == (0, 1)
        assert len(first.voter.credentials) == 3 and first.real_activated
        assert second.activation_reports == []
        assert election.outcomes == [] and election.clients == {}
        assert len(election.setup.board.current(RegistrationRecord)) == 2

    def test_run_registration_registers_the_roll_through_register_voter(self):
        config = ElectionConfig(num_voters=3)
        election = VotegralElection(config)
        outcomes = election.run_registration()
        assert [outcome.voter.voter_id for outcome in outcomes] == config.voter_ids()
        assert [outcome.ledger_seq for outcome in outcomes] == [0, 1, 2]
        assert list(election.clients) == config.voter_ids()

    def test_run_tally_is_a_guard_and_a_clock_around_tally_and_audit(self):
        config = ElectionConfig(num_voters=3, proof_rounds=2, num_mixers=2)
        with VotegralElection(config) as election:
            election.run_voting(rng=random.Random(3), fake_vote_probability=0.0)
            unverified = election.run_tally(verify=False)
            assert election.audit_report is None and election.timing.tally_seconds > 0
            # The two calls it makes, made directly: no guard, no timing.
            before = election.timing.tally_seconds
            result = election.tally()
            report = election.audit(result)
            assert election.timing.tally_seconds == before
            assert result.counts == unverified.counts
            assert report.ok and election.audit_report is None
            # Without a result the audit covers the board alone.
            assert election.audit().num_checks < report.num_checks

    def test_phase_timings_recorded(self):
        config = ElectionConfig(num_voters=3, proof_rounds=2, num_mixers=2)
        election = VotegralElection(config)
        election.run()
        per_voter = election.timing.per_voter(config.num_voters)
        assert per_voter["registration"] > 0
        assert per_voter["voting"] > 0
        assert per_voter["tally"] > 0

    def test_every_voter_gets_a_client_with_real_credential(self):
        config = ElectionConfig(num_voters=3, proof_rounds=2, num_mixers=2)
        election = VotegralElection(config)
        election.run_setup()
        election.run_registration()
        for client in election.clients.values():
            assert client.real_credential().is_real

    def test_phase_outputs_initialized_before_any_phase_runs(self):
        # Out-of-order drivers must see empty defaults, not AttributeError.
        election = VotegralElection(ElectionConfig(num_voters=2))
        assert election._intended == {}
        assert election._verified is False

    def test_injected_rng_makes_voting_reproducible(self):
        def run_with_seed(seed):
            config = ElectionConfig(num_voters=4, num_options=3, proof_rounds=2, num_mixers=2)
            election = VotegralElection(config)
            election.run_setup()
            election.run_registration()
            return election.run_voting(rng=random.Random(seed))

        assert run_with_seed(99) == run_with_seed(99)


class TestBoardSpecs:
    @pytest.mark.parametrize(
        "spec, backend_type",
        [("memory", MemoryBackend), ("sqlite", SQLiteBackend), ("batched:16", MemoryBackend)],
    )
    def test_config_selects_board_backend(self, spec, backend_type):
        config = ElectionConfig(num_voters=2, board_spec=spec)
        backend = config.make_board_backend()
        assert isinstance(backend, backend_type)

    def test_batched_board_election_matches_intent(self):
        config = ElectionConfig(
            num_voters=3, num_options=2, proof_rounds=2, num_mixers=2, board_spec="batched:4"
        )
        choices = {voter: 1 for voter in config.voter_ids()}
        with VotegralElection(config) as election:
            report = election.run(choices=choices)
        assert report.result.counts == {0: 0, 1: 3}
        assert report.universally_verified
        assert report.config.board_spec == "batched:4"
