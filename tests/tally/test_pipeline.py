"""The tally pipeline and universal verification."""

import pytest

from repro.audit.checks import audit_tally
from repro.errors import TallyError
from repro.registration.protocol import RegistrationSession
from repro.registration.voter import Voter
from repro.runtime.executor import SerialExecutor
from repro.runtime.pipeline import pipeline_from_spec
from repro.tally.decrypt import aggregate, decrypt_votes
from repro.tally.pipeline import TallyPipeline
from repro.voting.client import VotingClient

AUDIT_SPECS = ("eager", "batched", "stream:4")


def _register_and_vote(setup, votes, fake_votes=None):
    """Register each voter and cast their real (and optional fake) ballots."""
    session = RegistrationSession(setup=setup)
    clients = {}
    for voter_id in votes:
        voter = Voter(voter_id, num_fake_credentials=1)
        outcome = session.register(voter)
        client = VotingClient(
            group=setup.group, board=setup.board, authority_public_key=setup.authority_public_key
        )
        for report in outcome.activation_reports:
            client.add_credential(report.credential)
        clients[voter_id] = client
    num_options = max(votes.values()) + 1 if votes else 2
    for voter_id, choice in votes.items():
        clients[voter_id].cast_real(choice, num_options)
    for voter_id, choice in (fake_votes or {}).items():
        clients[voter_id].cast_fake(choice, num_options)
    return clients, num_options


class TestDecryptHelpers:
    def test_decrypt_and_aggregate(self, group, elgamal, dkg):
        ciphertexts = [elgamal.encrypt_int(dkg.public_key, value) for value in (0, 1, 1)]
        votes = decrypt_votes(dkg, ciphertexts, num_options=2)
        assert aggregate(votes, 2) == {0: 1, 1: 2}

    def test_invalid_plaintext_raises(self, group, elgamal, dkg):
        bogus = [elgamal.encrypt(dkg.public_key, group.power(500))]
        with pytest.raises(TallyError):
            decrypt_votes(dkg, bogus, num_options=2)


class TestTallyPipeline:
    def test_only_real_votes_counted(self, small_setup):
        votes = {"alice": 1, "bob": 0, "carol": 1}
        fake_votes = {"alice": 0, "bob": 1}
        _register_and_vote(small_setup, votes, fake_votes)
        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        assert result.counts == {0: 1, 1: 2}
        assert result.num_counted == 3
        assert result.num_discarded == 2

    def test_tally_without_registrations_raises(self, small_setup):
        pipeline = TallyPipeline(small_setup.group, small_setup.authority)
        with pytest.raises(TallyError):
            pipeline.run(small_setup.board, num_options=2)

    def test_revote_with_same_credential_keeps_last(self, small_setup):
        votes = {"alice": 0}
        clients, num_options = _register_and_vote(small_setup, votes)
        clients["alice"].cast_real(1, 2)  # the voter changes their mind
        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        assert result.counts == {0: 0, 1: 1}

    @pytest.mark.parametrize("spec", AUDIT_SPECS)
    def test_universal_verification_accepts_honest_tally(self, small_setup, spec):
        _register_and_vote(small_setup, {"alice": 1, "bob": 0})
        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=4)
        result = pipeline.run(small_setup.board, num_options=2)
        report = audit_tally(
            small_setup.group, small_setup.authority, small_setup.board, result, verifier=spec
        )
        assert report.ok, report.failures

    @pytest.mark.parametrize("spec", AUDIT_SPECS)
    def test_universal_verification_rejects_tampered_counts(self, small_setup, spec):
        _register_and_vote(small_setup, {"alice": 1, "bob": 0})
        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=4)
        result = pipeline.run(small_setup.board, num_options=2)
        result.counts[1] += 5
        report = audit_tally(
            small_setup.group, small_setup.authority, small_setup.board, result, verifier=spec
        )
        assert [failure.name for failure in report.failures] == ["tally.counts-sum"]

    @pytest.mark.parametrize("pipeline_spec", ["serial", "stream:2"])
    def test_the_executor_is_warmed_once_before_any_work(self, small_setup, pipeline_spec):
        """On a cluster ``warm`` is the enrollment barrier; in process a no-op
        that every schedule calls all the same."""
        calls = []

        class Recording(SerialExecutor):
            def warm(self):
                calls.append("warm")

            def map(self, fn, items, chunksize=None):
                calls.append("map")
                return super().map(fn, items, chunksize)

            def starmap(self, fn, items, chunksize=None):
                calls.append("starmap")
                return super().starmap(fn, items, chunksize)

        _register_and_vote(small_setup, {"alice": 1, "bob": 0})
        pipeline = TallyPipeline(
            small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2,
            executor=Recording(), pipeline=pipeline_from_spec(pipeline_spec),
        )
        assert pipeline.run(small_setup.board, num_options=2).counts == {0: 1, 1: 1}
        assert calls[0] == "warm" and calls.count("warm") == 1
        assert len(calls) > 1

    def test_winner_helper(self, small_setup):
        _register_and_vote(small_setup, {"alice": 1, "bob": 1, "carol": 0})
        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        assert result.winner() == 1

    def test_unsigned_ballot_ignored(self, group, small_setup):
        from repro.crypto.elgamal import ElGamal
        from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
        from repro.ledger.bulletin_board import BallotRecord

        _register_and_vote(small_setup, {"alice": 0})
        rogue = schnorr_keygen(group)
        ciphertext = ElGamal(group).encrypt_int(small_setup.authority_public_key, 1)
        small_setup.board.post_ballot(
            BallotRecord(
                credential_public_key=rogue.public,
                ciphertext_c1=ciphertext.c1,
                ciphertext_c2=ciphertext.c2,
                signature=schnorr_sign(rogue, b"not the ballot message"),
            )
        )
        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        assert result.num_valid_ballots == 1
        assert result.counts == {0: 1, 1: 0}

    def test_unregistered_credential_ballot_discarded(self, group, small_setup):
        """A well-signed ballot from a credential never issued by the registrar is dropped."""
        from repro.registration.protocol import RegistrationSession
        from repro.voting.ballot import make_ballot
        from repro.crypto.schnorr import schnorr_keygen

        _register_and_vote(small_setup, {"alice": 0})
        rogue = schnorr_keygen(group)
        ballot = make_ballot(group, small_setup.authority_public_key, rogue, 1, 2)
        small_setup.board.post_ballot(ballot.to_record())
        pipeline = TallyPipeline(small_setup.group, small_setup.authority, num_mixers=2, proof_rounds=2)
        result = pipeline.run(small_setup.board, num_options=2)
        assert result.counts == {0: 1, 1: 0}
        assert result.num_discarded >= 1
