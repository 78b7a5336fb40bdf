"""Random-linear-combination batch verification: accepts, rejections, fallback."""

from __future__ import annotations

import dataclasses

import pytest

from repro.crypto.chaum_pedersen import (
    ChaumPedersenStatement,
    fiat_shamir_prove,
    simulate_chaum_pedersen,
)
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.crypto.tagging import TaggingAuthority, ciphertext_tag_chain_transcripts
from repro.runtime.batch import (
    batch_chaum_pedersen_verify,
    batch_reencryption_verify,
    batch_schnorr_verify,
    verify_signatures,
)
from repro.runtime.executor import SerialExecutor


@pytest.fixture()
def signature_batch(group):
    items = []
    for index in range(12):
        keypair = schnorr_keygen(group)
        message = f"ballot-{index}".encode()
        items.append((keypair.public, message, schnorr_sign(keypair, message)))
    return items


def _tamper_signature(item, order):
    public, message, signature = item
    forged = dataclasses.replace(signature, response=(signature.response + 1) % order)
    return (public, message, forged)


class TestBatchSchnorr:
    def test_accepts_all_valid(self, signature_batch):
        assert batch_schnorr_verify(signature_batch)

    def test_empty_and_singleton(self, group, signature_batch):
        assert batch_schnorr_verify([])
        assert batch_schnorr_verify(signature_batch[:1])

    @pytest.mark.parametrize("index", [0, 5, 11])
    def test_rejects_single_tampered_signature(self, group, signature_batch, index):
        tampered = list(signature_batch)
        tampered[index] = _tamper_signature(tampered[index], group.order)
        assert not batch_schnorr_verify(tampered)

    def test_rejects_swapped_messages(self, signature_batch):
        swapped = list(signature_batch)
        a, b = swapped[2], swapped[7]
        swapped[2] = (a[0], b[1], a[2])
        swapped[7] = (b[0], a[1], b[2])
        assert not batch_schnorr_verify(swapped)


class TestVerifySignatures:
    def test_per_item_verdicts_isolate_forgeries(self, group, signature_batch):
        tampered = list(signature_batch)
        for index in (1, 8):
            tampered[index] = _tamper_signature(tampered[index], group.order)
        verdicts = verify_signatures(tampered)
        assert verdicts == [index not in (1, 8) for index in range(len(tampered))]

    def test_small_chunks_force_bisection(self, group, signature_batch):
        tampered = list(signature_batch)
        tampered[4] = _tamper_signature(tampered[4], group.order)
        verdicts = verify_signatures(tampered, chunk_size=3)
        assert verdicts == [index != 4 for index in range(len(tampered))]

    def test_cluster_executor_matches_serial(self, group, signature_batch, cluster_executor):
        tampered = list(signature_batch)
        tampered[9] = _tamper_signature(tampered[9], group.order)
        serial = verify_signatures(tampered, executor=SerialExecutor())
        parallel = verify_signatures(tampered, executor=cluster_executor, chunk_size=4)
        assert serial == parallel == [index != 9 for index in range(len(tampered))]


@pytest.fixture()
def chaum_pedersen_batch(group):
    transcripts = []
    base_h = group.hash_to_element(b"second base")
    for index in range(8):
        witness = group.random_scalar()
        statement = ChaumPedersenStatement(
            base_g=group.generator,
            base_h=base_h,
            value_g=group.power(witness),
            value_h=base_h ** witness,
        )
        transcripts.append(fiat_shamir_prove(statement, witness, context=b"batch-test"))
    return transcripts


class TestBatchChaumPedersen:
    def test_accepts_valid_transcripts(self, chaum_pedersen_batch):
        assert batch_chaum_pedersen_verify(chaum_pedersen_batch)

    def test_accepts_simulated_transcripts_without_context(self, group):
        # The simulator forges verifying transcripts (that is its purpose);
        # the batch check must accept them exactly like the one-by-one check.
        base_h = group.hash_to_element(b"sim base")
        statement = ChaumPedersenStatement(
            base_g=group.generator,
            base_h=base_h,
            value_g=group.power(5),
            value_h=base_h ** 7,  # no witness exists
        )
        transcripts = [simulate_chaum_pedersen(statement, group.random_scalar()) for _ in range(4)]
        assert batch_chaum_pedersen_verify(transcripts)

    def test_folds_the_transcripts_of_tagging_chains(self, group, elgamal, dkg):
        """The tally's tag proofs: the structural walk confirms the challenges, the fold the algebra."""
        authority = TaggingAuthority.create(group, 3)
        transcripts = []
        for value in (3, 4):
            ciphertext = elgamal.encrypt(dkg.public_key, group.power(value))
            blinded, steps = authority.blind_ciphertext_with_proof(ciphertext)
            transcripts += ciphertext_tag_chain_transcripts(steps, ciphertext, blinded, authority.commitments)
        assert len(transcripts) == 2 * 2 * 3
        assert batch_chaum_pedersen_verify(transcripts)
        transcripts[5] = dataclasses.replace(transcripts[5], challenge=(transcripts[5].challenge + 1) % group.order)
        assert not batch_chaum_pedersen_verify(transcripts)

    @pytest.mark.parametrize("index", [0, 3, 7])
    def test_rejects_single_tampered_response(self, group, chaum_pedersen_batch, index):
        tampered = list(chaum_pedersen_batch)
        transcript = tampered[index]
        tampered[index] = dataclasses.replace(transcript, response=(transcript.response + 1) % group.order)
        assert not batch_chaum_pedersen_verify(tampered)


@pytest.fixture()
def reencryption_batch(group, elgamal):
    keypair = elgamal.keygen()
    items = []
    for index in range(10):
        message = group.hash_to_element(f"m{index}".encode())
        source = elgamal.encrypt(keypair.public, message)
        randomness = group.random_scalar()
        target = elgamal.reencrypt(keypair.public, source, randomness)
        items.append((source, target, randomness))
    return keypair.public, items


class TestBatchReencryption:
    def test_accepts_valid_openings(self, elgamal, reencryption_batch):
        public_key, items = reencryption_batch
        assert batch_reencryption_verify(elgamal, public_key, items)
        assert batch_reencryption_verify(elgamal, public_key, [])

    @pytest.mark.parametrize("index", [0, 4, 9])
    def test_rejects_wrong_randomness(self, group, elgamal, reencryption_batch, index):
        public_key, items = reencryption_batch
        source, target, randomness = items[index]
        items = list(items)
        items[index] = (source, target, (randomness + 1) % group.order)
        assert not batch_reencryption_verify(elgamal, public_key, items)

    def test_rejects_substituted_target(self, group, elgamal, reencryption_batch):
        public_key, items = reencryption_batch
        source, _, randomness = items[5]
        decoy = elgamal.encrypt(public_key, group.hash_to_element(b"decoy"))
        items = list(items)
        items[5] = (source, decoy, randomness)
        assert not batch_reencryption_verify(elgamal, public_key, items)
