"""Distributed deterministic tagging (Votegral's linear-time filter)."""

import dataclasses
import random

import pytest

from repro.crypto.chaum_pedersen import ChaumPedersenStatement, chaum_pedersen_verify, fiat_shamir_prove
from repro.crypto.ed25519 import ed25519_group
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group import Group
from repro.crypto.modp_group import modp_group_256
from repro.crypto.multiexp import plan_shared_base_powers
from repro.crypto.schnorr import schnorr_keygen
from repro.crypto.tagging import CIPHERTEXT_TAG_CONTEXT, TaggingAuthority, verify_ciphertext_tag_chain


def _collective_power(authority, element):
    """The reference tag: ``element ** ∏ z_i``."""
    exponent = 1
    for secret in authority.secrets:
        exponent = (exponent * secret) % authority.group.order
    return element ** exponent


class TestDeterminism:
    def test_same_input_same_tag(self, group, elgamal, dkg):
        authority = TaggingAuthority.create(group, 3)
        element = group.power(1234)
        first = authority.blind_and_decrypt(dkg, elgamal.encrypt(dkg.public_key, element))
        second = authority.blind_and_decrypt(dkg, elgamal.encrypt(dkg.public_key, element))
        assert first == second

    def test_different_inputs_different_tags(self, group, elgamal, dkg):
        authority = TaggingAuthority.create(group, 3)
        first = authority.blind_and_decrypt(dkg, elgamal.encrypt(dkg.public_key, group.power(1)))
        second = authority.blind_and_decrypt(dkg, elgamal.encrypt(dkg.public_key, group.power(2)))
        assert first != second

    def test_fresh_authority_produces_unlinkable_tags(self, group, elgamal, dkg):
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(7))
        first = TaggingAuthority.create(group, 2).blind_and_decrypt(dkg, ciphertext)
        second = TaggingAuthority.create(group, 2).blind_and_decrypt(dkg, ciphertext)
        assert first != second

    def test_tag_equals_collective_exponent(self, group, elgamal, dkg):
        authority = TaggingAuthority.create(group, 3)
        element = group.power(9)
        ciphertext = elgamal.encrypt(dkg.public_key, element)
        assert authority.blind_and_decrypt(dkg, ciphertext) == _collective_power(authority, element)


class TestCiphertextTagging:
    def test_blind_and_decrypt_matches_plain_blinding(self, group, elgamal, dkg):
        authority = TaggingAuthority.create(group, dkg.num_members)
        credential = schnorr_keygen(group)
        ciphertext = elgamal.encrypt(dkg.public_key, credential.public)
        assert authority.blind_and_decrypt(dkg, ciphertext) == _collective_power(authority, credential.public)

    def test_real_matches_fake_does_not(self, group, elgamal, dkg):
        """The exact tally-filter situation: a real ballot's tag matches the
        registration tag; a fake ballot's tag does not.  Ballot credentials
        enter the mix as trivial encryptions (randomness 0)."""
        authority = TaggingAuthority.create(group, dkg.num_members)
        real = schnorr_keygen(group)
        fake = schnorr_keygen(group)
        registration_tag = elgamal.encrypt(dkg.public_key, real.public)
        decrypted_tag = authority.blind_and_decrypt(dkg, registration_tag)
        for credential, matches in ((real, True), (fake, False)):
            ballot_tag = elgamal.encrypt(dkg.public_key, credential.public, 0)
            assert (authority.blind_and_decrypt(dkg, ballot_tag) == decrypted_tag) is matches


class TestProverReference:
    """``blinding_material`` publishes exactly what ``fiat_shamir_prove`` would, nonce for nonce."""

    @pytest.mark.parametrize("group_factory", [ed25519_group, modp_group_256], ids=["ed25519", "modp256"])
    def test_transcripts_match_the_plain_power_prover(self, group_factory, monkeypatch):
        group = group_factory()
        authority = TaggingAuthority.create(group, 3)
        ciphertext = ElGamalCiphertext(group.power(11), group.hash_to_element(b"tagged credential"))

        def play_tape():
            tape = random.Random(45)
            monkeypatch.setattr(Group, "random_scalar", lambda self: tape.randrange(1, self.order))

        play_tape()
        blinded, material = authority.blinding_material(ciphertext)
        published = [
            proof.to_bytes()
            for step in authority.steps_from_material(ciphertext, material)
            for proof in (step.proof_c1, step.proof_c2)
        ]

        play_tape()
        reference, current = [], ciphertext
        for secret, commitment in zip(authority.secrets, authority.commitments):
            parts = []
            for before in (current.c1, current.c2):
                after = before ** secret
                statement = ChaumPedersenStatement(before, group.generator, after, commitment)
                reference.append(fiat_shamir_prove(statement, secret, context=CIPHERTEXT_TAG_CONTEXT).to_bytes())
                parts.append(after)
            current = ElGamalCiphertext(*parts)

        assert published == reference
        assert blinded == current
        if group_factory is ed25519_group:  # the material came off the shared ladder, not two plain powers
            costs = group.kernel_costs(group.order.bit_length())
            plan = plan_shared_base_powers(2, group.order.bit_length(), square_cost=costs.square, invert_cost=costs.invert)
            assert plan.algorithm == "ladder"


class TestVerification:
    def test_valid_chain_verifies(self, group, elgamal, dkg):
        authority = TaggingAuthority.create(group, 3)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        blinded, steps = authority.blind_ciphertext_with_proof(ciphertext)
        assert blinded == authority.blind_ciphertext(ciphertext)
        assert verify_ciphertext_tag_chain(steps, ciphertext, blinded, authority.commitments)

    def test_chain_against_wrong_original_fails(self, group, elgamal, dkg):
        authority = TaggingAuthority.create(group, 3)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        blinded, steps = authority.blind_ciphertext_with_proof(ciphertext)
        other = elgamal.encrypt(dkg.public_key, group.power(6))
        assert not verify_ciphertext_tag_chain(steps, other, blinded, authority.commitments)

    def test_chain_against_wrong_commitments_fails(self, group, elgamal, dkg):
        authority = TaggingAuthority.create(group, 2)
        other = TaggingAuthority.create(group, 2)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        blinded, steps = authority.blind_ciphertext_with_proof(ciphertext)
        assert not verify_ciphertext_tag_chain(steps, ciphertext, blinded, other.commitments)

    def test_chain_against_wrong_final_fails(self, group, elgamal, dkg):
        authority = TaggingAuthority.create(group, 2)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        blinded, steps = authority.blind_ciphertext_with_proof(ciphertext)
        assert not verify_ciphertext_tag_chain(steps, ciphertext, blinded.exponentiate(2), authority.commitments)

    def test_reordered_steps_fail(self, group, elgamal, dkg):
        authority = TaggingAuthority.create(group, 3)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        blinded, steps = authority.blind_ciphertext_with_proof(ciphertext)
        reordered = [steps[1], steps[0], steps[2]]
        assert not verify_ciphertext_tag_chain(reordered, ciphertext, blinded, authority.commitments)

    def test_challenge_hashed_under_a_foreign_context_fails(self, group, elgamal, dkg):
        """Proof algebra alone does not pass: the challenge must be this chain's hash."""
        authority = TaggingAuthority.create(group, 2)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        blinded, steps = authority.blind_ciphertext_with_proof(ciphertext)
        foreign = fiat_shamir_prove(steps[0].proof_c1.statement, authority.secrets[0], context=b"another-domain")
        assert chaum_pedersen_verify(foreign)
        steps[0] = dataclasses.replace(steps[0], proof_c1=foreign)
        assert not verify_ciphertext_tag_chain(steps, ciphertext, blinded, authority.commitments)

    def test_tampered_response_fails(self, group, elgamal, dkg):
        authority = TaggingAuthority.create(group, 2)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        blinded, steps = authority.blind_ciphertext_with_proof(ciphertext)
        proof = steps[1].proof_c2
        steps[1] = dataclasses.replace(
            steps[1], proof_c2=dataclasses.replace(proof, response=(proof.response + 1) % group.order)
        )
        assert not verify_ciphertext_tag_chain(steps, ciphertext, blinded, authority.commitments)
