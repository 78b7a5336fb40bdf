"""Ballot formation, well-formedness proofs and verification."""

import pytest

from repro.crypto.schnorr import schnorr_keygen
from repro.voting.ballot import (
    Ballot,
    audit_ballot,
    make_ballot,
    prove_wellformedness,
    wellformedness_ok,
)


@pytest.fixture()
def credential(group):
    return schnorr_keygen(group)


@pytest.fixture()
def authority_key(dkg):
    return dkg.public_key


class TestBallotRoundtrip:
    def test_valid_ballot_verifies(self, group, dkg, credential):
        ballot = make_ballot(group, dkg.public_key, credential, choice=1, num_options=3)
        assert audit_ballot(group, dkg.public_key, ballot, num_options=3).ok

    def test_ballot_decrypts_to_choice(self, group, dkg, credential):
        ballot = make_ballot(group, dkg.public_key, credential, choice=2, num_options=3)
        assert dkg.decrypt(ballot.ciphertext) == group.encode_int(2)

    def test_every_choice_in_range_works(self, group, dkg, credential):
        for choice in range(4):
            ballot = make_ballot(group, dkg.public_key, credential, choice, num_options=4)
            assert audit_ballot(group, dkg.public_key, ballot, num_options=4).ok

    def test_choice_out_of_range_rejected(self, group, dkg, credential):
        with pytest.raises(ValueError):
            make_ballot(group, dkg.public_key, credential, choice=5, num_options=3)

    def test_ballot_record_conversion(self, group, dkg, credential):
        ballot = make_ballot(group, dkg.public_key, credential, 0, 2, election_id="june")
        record = ballot.to_record()
        assert record.election_id == "june"
        assert record.credential_public_key == credential.public


class TestSignatureBinding:
    def test_signature_by_other_credential_rejected(self, group, dkg, credential):
        other = schnorr_keygen(group)
        ballot = make_ballot(group, dkg.public_key, credential, 1, 2)
        forged = Ballot(
            ciphertext=ballot.ciphertext,
            credential_public_key=other.public,
            signature=ballot.signature,
            wellformedness=ballot.wellformedness,
            key_proof=ballot.key_proof,
        )
        assert not audit_ballot(group, dkg.public_key, forged, 2).ok

    def test_election_id_is_signed(self, group, dkg, credential):
        ballot = make_ballot(group, dkg.public_key, credential, 1, 2, election_id="a")
        forged = Ballot(
            ciphertext=ballot.ciphertext,
            credential_public_key=ballot.credential_public_key,
            signature=ballot.signature,
            wellformedness=ballot.wellformedness,
            key_proof=ballot.key_proof,
            election_id="b",
        )
        assert not audit_ballot(group, dkg.public_key, forged, 2).ok

    def test_key_proof_for_wrong_key_rejected(self, group, dkg, credential):
        from repro.crypto.dlog_proof import prove_dlog

        other = schnorr_keygen(group)
        ballot = make_ballot(group, dkg.public_key, credential, 1, 2)
        forged = Ballot(
            ciphertext=ballot.ciphertext,
            credential_public_key=ballot.credential_public_key,
            signature=ballot.signature,
            wellformedness=ballot.wellformedness,
            key_proof=prove_dlog(group.generator, other.secret, context=b"ballot-credential-key"),
        )
        assert not audit_ballot(group, dkg.public_key, forged, 2).ok

    def test_report_names_the_failing_check(self, group, dkg, credential):
        ballot = make_ballot(group, dkg.public_key, credential, 1, 2)
        broken = Ballot(
            ciphertext=ballot.ciphertext,
            credential_public_key=ballot.credential_public_key,
            signature=ballot.signature,
            wellformedness=ballot.wellformedness,
            key_proof=ballot.key_proof,
            election_id="tampered",
        )
        report = audit_ballot(group, dkg.public_key, broken, 2)
        assert [failure.name for failure in report.failures] == ["ballot.signature"]


class TestWellformedness:
    def test_proof_for_each_option(self, group, dkg):
        from repro.crypto.elgamal import ElGamal

        elgamal = ElGamal(group)
        randomness = group.random_scalar()
        ciphertext = elgamal.encrypt_int(dkg.public_key, 1, randomness)
        proof = prove_wellformedness(group, dkg.public_key, ciphertext, 1, randomness, 3)
        assert wellformedness_ok(group, dkg.public_key, ciphertext, proof, 3)

    def test_out_of_range_plaintext_cannot_be_proven(self, group, dkg):
        """An encryption of an invalid option has no accepting proof via the honest prover."""
        from repro.crypto.elgamal import ElGamal

        elgamal = ElGamal(group)
        randomness = group.random_scalar()
        ciphertext = elgamal.encrypt_int(dkg.public_key, 7, randomness)
        # Claiming it encrypts option 1 yields a proof that fails verification.
        proof = prove_wellformedness(group, dkg.public_key, ciphertext, 1, randomness + 1, 3)
        assert not wellformedness_ok(group, dkg.public_key, ciphertext, proof, 3)

    def test_proof_does_not_transfer_to_other_ciphertext(self, group, dkg):
        from repro.crypto.elgamal import ElGamal

        elgamal = ElGamal(group)
        randomness = group.random_scalar()
        ciphertext = elgamal.encrypt_int(dkg.public_key, 1, randomness)
        other = elgamal.encrypt_int(dkg.public_key, 1)
        proof = prove_wellformedness(group, dkg.public_key, ciphertext, 1, randomness, 3)
        assert not wellformedness_ok(group, dkg.public_key, other, proof, 3)

    def test_wrong_option_count_rejected(self, group, dkg):
        from repro.crypto.elgamal import ElGamal

        elgamal = ElGamal(group)
        randomness = group.random_scalar()
        ciphertext = elgamal.encrypt_int(dkg.public_key, 1, randomness)
        proof = prove_wellformedness(group, dkg.public_key, ciphertext, 1, randomness, 3)
        assert not wellformedness_ok(group, dkg.public_key, ciphertext, proof, 4)
