"""The Chaum–Pedersen Σ-protocol: sound prover, simulator, verification."""

import pytest

from repro.crypto.chaum_pedersen import (
    ChaumPedersenProver,
    ChaumPedersenStatement,
    ChaumPedersenTranscript,
    chaum_pedersen_verify,
    fiat_shamir_challenge,
    fiat_shamir_prove,
    simulate_chaum_pedersen,
)
from repro.errors import ProtocolError


@pytest.fixture()
def true_statement(group):
    """A statement with a known witness: C1 = g^x, X = h^x."""
    h = group.hash_to_element(b"authority key")
    x = group.random_scalar()
    statement = ChaumPedersenStatement(group.generator, h, group.generator ** x, h ** x)
    return statement, x


@pytest.fixture()
def false_statement(group):
    """A statement with no witness (the two discrete logs differ)."""
    h = group.hash_to_element(b"authority key")
    statement = ChaumPedersenStatement(group.generator, h, group.power(3), h ** 4)
    return statement


class TestSoundProver:
    def test_honest_proof_verifies(self, group, true_statement):
        statement, witness = true_statement
        prover = ChaumPedersenProver(statement, witness)
        prover.commit()
        transcript = prover.respond(group.random_scalar())
        assert chaum_pedersen_verify(transcript)

    def test_respond_before_commit_is_rejected(self, group, true_statement):
        statement, witness = true_statement
        prover = ChaumPedersenProver(statement, witness)
        with pytest.raises(ProtocolError):
            prover.respond(group.random_scalar())

    def test_double_commit_is_rejected(self, true_statement):
        statement, witness = true_statement
        prover = ChaumPedersenProver(statement, witness)
        prover.commit()
        with pytest.raises(ProtocolError):
            prover.commit()

    def test_wrong_witness_fails_verification(self, group, true_statement):
        statement, witness = true_statement
        prover = ChaumPedersenProver(statement, witness + 1)
        prover.commit()
        transcript = prover.respond(group.random_scalar())
        assert not chaum_pedersen_verify(transcript)

    def test_challenge_zero_edge_case(self, group, true_statement):
        statement, witness = true_statement
        prover = ChaumPedersenProver(statement, witness)
        prover.commit()
        assert chaum_pedersen_verify(prover.respond(0))


class TestSimulator:
    def test_simulated_transcript_verifies_without_witness(self, group, false_statement):
        transcript = simulate_chaum_pedersen(false_statement, group.random_scalar())
        assert chaum_pedersen_verify(transcript)

    def test_simulated_and_real_transcripts_share_structure(self, group, true_statement):
        statement, witness = true_statement
        challenge = group.random_scalar()
        prover = ChaumPedersenProver(statement, witness)
        prover.commit()
        real = prover.respond(challenge)
        fake = simulate_chaum_pedersen(statement, challenge)
        # Same statement, same challenge, both verify: on paper they are
        # indistinguishable (the distributions coincide; here we check the
        # verifier accepts both and the fields have the same types/shape).
        assert chaum_pedersen_verify(real) and chaum_pedersen_verify(fake)
        assert real.statement == fake.statement
        assert real.challenge == fake.challenge

    def test_simulator_with_fixed_response(self, group, false_statement):
        transcript = simulate_chaum_pedersen(false_statement, 5, response=7)
        assert transcript.response == 7
        assert chaum_pedersen_verify(transcript)

    def test_tampered_transcript_rejected(self, group, false_statement):
        transcript = simulate_chaum_pedersen(false_statement, group.random_scalar())
        tampered = ChaumPedersenTranscript(
            statement=transcript.statement,
            commit=transcript.commit,
            challenge=transcript.challenge,
            response=(transcript.response + 1) % group.order,
        )
        assert not chaum_pedersen_verify(tampered)


class TestSoundnessIntuition:
    def test_prover_cannot_answer_two_challenges_for_false_statement(self, group, false_statement):
        """A forged commit only answers the one challenge it was built for."""
        challenge = group.random_scalar()
        transcript = simulate_chaum_pedersen(false_statement, challenge)
        other_challenge = (challenge + 1) % group.order
        # Reusing the same commit with a different challenge cannot verify for
        # any response, because that would yield a witness for a false statement.
        statement = transcript.statement
        for candidate_response in [transcript.response, 0, 1, group.random_scalar()]:
            forged = ChaumPedersenTranscript(statement, transcript.commit, other_challenge, candidate_response)
            assert not chaum_pedersen_verify(forged)


def _hashed_under(transcript, context):
    """Whether the transcript's challenge is its Fiat–Shamir hash under ``context``."""
    return transcript.challenge == fiat_shamir_challenge(transcript.statement, transcript.commit, context)


class TestFiatShamir:
    def test_nizk_roundtrip(self, group, true_statement):
        statement, witness = true_statement
        proof = fiat_shamir_prove(statement, witness, context=b"test")
        assert _hashed_under(proof, b"test") and chaum_pedersen_verify(proof)

    def test_nizk_context_binding(self, group, true_statement):
        statement, witness = true_statement
        proof = fiat_shamir_prove(statement, witness, context=b"ctx-a")
        assert not _hashed_under(proof, b"ctx-b")

    def test_simulated_transcript_fails_fiat_shamir(self, group, false_statement):
        """The simulator cannot target the hash-derived challenge — NIZKs stay sound."""
        transcript = simulate_chaum_pedersen(false_statement, group.random_scalar())
        assert chaum_pedersen_verify(transcript)
        assert not _hashed_under(transcript, b"")
