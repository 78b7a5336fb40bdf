"""Cross-module integration scenarios."""


from repro.election import ElectionConfig, VotegralElection
from repro.registration.protocol import RegistrationSession, run_registration
from repro.registration.voter import Voter
from repro.audit.checks import audit_tally
from repro.tally.pipeline import TallyPipeline
from repro.voting.client import VotingClient


class TestMultiVoterElection:
    def test_ten_voter_election_with_fakes_and_verification(self):
        config = ElectionConfig(num_voters=10, num_options=3, proof_rounds=2, num_mixers=3)
        report = VotegralElection(config).run()
        assert report.counts_match_intent
        assert report.universally_verified
        assert report.result.num_counted == 10
        assert sum(report.result.counts.values()) == 10

    def test_ledger_chains_intact_after_full_election(self):
        config = ElectionConfig(num_voters=4, proof_rounds=2, num_mixers=2)
        election = VotegralElection(config)
        election.run()
        assert election.setup.board.verify_all_chains()


class TestCoercedVoterScenario:
    def test_coerced_voter_real_vote_counts_and_decoy_does_not(self, small_setup):
        """The paper's flagship scenario: Alice under coercion.

        Alice gives the coercer a fake credential, casts the coercer's demanded
        vote with it under supervision, then privately casts her real vote.
        Only the real vote is counted and the coercer cannot tell from the
        ledger which of the two ballots counted.
        """
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=1))
        client = VotingClient(
            group=small_setup.group,
            board=small_setup.board,
            authority_public_key=small_setup.authority_public_key,
        )
        for report in outcome.activation_reports:
            client.add_credential(report.credential)

        client.cast_fake(0, num_options=2)   # coercer watches this one
        client.cast_real(1, num_options=2)   # cast in private

        # Two more honest voters provide the statistical cover.
        for voter_id, choice in (("bob", 0), ("carol", 1)):
            other = run_registration(small_setup, Voter(voter_id, num_fake_credentials=1))
            other_client = VotingClient(
                group=small_setup.group,
                board=small_setup.board,
                authority_public_key=small_setup.authority_public_key,
            )
            for report in other.activation_reports:
                other_client.add_credential(report.credential)
            other_client.cast_real(choice, num_options=2)

        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        assert result.counts == {0: 1, 1: 2}          # Alice's real vote counted
        assert result.num_discarded == 1              # the coerced decoy did not
        assert audit_tally(small_setup.group, small_setup.authority, small_setup.board, result).ok

    def test_reregistration_invalidates_stolen_credential(self, small_setup):
        """Impersonation recovery (Appendix J): after re-registering, ballots
        cast with the earlier credential no longer count."""
        first = run_registration(small_setup, Voter("alice", num_fake_credentials=0))
        stolen_client = VotingClient(
            group=small_setup.group,
            board=small_setup.board,
            authority_public_key=small_setup.authority_public_key,
        )
        for report in first.activation_reports:
            stolen_client.add_credential(report.credential)

        # Alice re-registers (new credential supersedes the old record).
        session = RegistrationSession(setup=small_setup)
        second = session.register(Voter("alice", num_fake_credentials=0))
        new_client = VotingClient(
            group=small_setup.group,
            board=small_setup.board,
            authority_public_key=small_setup.authority_public_key,
        )
        for report in second.activation_reports:
            new_client.add_credential(report.credential)

        stolen_client.cast_real(0, 2)   # the thief votes with the old credential
        new_client.cast_real(1, 2)      # Alice votes with the new one

        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        assert result.counts == {0: 0, 1: 1}


class TestCredentialReuseAcrossElections:
    def test_same_credential_votes_in_two_elections(self, small_setup):
        """Registration is amortized: the same credential casts ballots in
        successive elections, each tallied independently."""
        outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=0))
        client = VotingClient(
            group=small_setup.group,
            board=small_setup.board,
            authority_public_key=small_setup.authority_public_key,
        )
        for report in outcome.activation_reports:
            client.add_credential(report.credential)

        client.cast_real(0, 2, election_id="spring")
        client.cast_real(1, 2, election_id="autumn")

        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2)
        spring = pipeline.run(small_setup.board, num_options=2, election_id="spring")
        autumn = pipeline.run(small_setup.board, num_options=2, election_id="autumn")
        assert spring.counts == {0: 1, 1: 0}
        assert autumn.counts == {0: 0, 1: 1}
