"""The voting client: casting with real and fake credentials, history."""

import pytest

from repro.errors import ProtocolError
from repro.registration.protocol import run_registration
from repro.registration.voter import Voter
from repro.voting.client import VotingClient
from repro.ledger.records import BallotRecord


@pytest.fixture()
def registered_client(small_setup):
    outcome = run_registration(small_setup, Voter("alice", num_fake_credentials=1))
    client = VotingClient(
        group=small_setup.group,
        board=small_setup.board,
        authority_public_key=small_setup.authority_public_key,
    )
    for report in outcome.activation_reports:
        client.add_credential(report.credential)
    return client


class TestCasting:
    def test_cast_real_posts_ballot(self, small_setup, registered_client):
        registered_client.cast_real(1, num_options=2)
        assert small_setup.board.count(BallotRecord) == 1

    def test_history_records_ledger_sequence(self, small_setup, registered_client):
        registered_client.cast_real(1, num_options=2)
        registered_client.cast_fake(0, num_options=2)
        seqs = [entry.ledger_seq for entry in registered_client.voting_history()]
        assert seqs == [0, 1]
        # The receipt locates the ballot with a single cursor read.
        page = small_setup.board.read(BallotRecord, since=seqs[0], limit=1)
        assert page.records[0].credential_public_key == registered_client.real_credential().public_key

    def test_cast_fake_posts_indistinguishable_ballot(self, small_setup, registered_client):
        real = registered_client.cast_real(1, 2)
        fake = registered_client.cast_fake(0, 2)
        records = small_setup.board.read(BallotRecord).records
        assert len(records) == 2
        # Both ballots carry a credential key and a valid signature; nothing on
        # the record reveals which credential is real.
        assert {type(r.credential_public_key) for r in records} == {type(real.credential_public_key)}

    def test_cast_with_explicit_credential(self, registered_client):
        fake_credential = registered_client.fake_credentials()[0]
        ballot = registered_client.cast(0, 2, credential=fake_credential)
        assert ballot.credential_public_key == fake_credential.public_key

    def test_cast_fake_without_fakes_raises(self, small_setup):
        outcome = run_registration(small_setup, Voter("bob", num_fake_credentials=0))
        client = VotingClient(
            group=small_setup.group,
            board=small_setup.board,
            authority_public_key=small_setup.authority_public_key,
        )
        for report in outcome.activation_reports:
            client.add_credential(report.credential)
        with pytest.raises(ProtocolError):
            client.cast_fake(0, 2)

    def test_client_without_real_credential_raises(self, small_setup):
        client = VotingClient(
            group=small_setup.group,
            board=small_setup.board,
            authority_public_key=small_setup.authority_public_key,
        )
        with pytest.raises(ProtocolError):
            client.cast_real(0, 2)


class TestVotingHistory:
    def test_history_records_real_and_fake(self, registered_client):
        registered_client.cast_real(1, 2, election_id="june")
        registered_client.cast_fake(0, 2, election_id="june")
        history = registered_client.voting_history("june")
        assert len(history) == 2
        assert {entry.was_real_credential for entry in history} == {True, False}

    def test_history_filtered_by_election(self, registered_client):
        registered_client.cast_real(1, 2, election_id="june")
        assert registered_client.voting_history("december") == []

    def test_full_history(self, registered_client):
        registered_client.cast_real(1, 2, election_id="a")
        registered_client.cast_fake(0, 2, election_id="b")
        assert len(registered_client.voting_history()) == 2
