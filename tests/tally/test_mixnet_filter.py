"""Tuple mixing, ballot deduplication and tag-based filtering."""

import pytest

from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.crypto.tagging import TaggingAuthority
from repro.ledger.records import BallotRecord
from repro.tally.filter import deduplicate_ballots, filter_ballots
from repro.tally.mixnet import (
    TupleCascade,
    TupleShuffle,
    random_permutation,
    shuffle_tuples_with_proof,
    tuple_mix_cascade,
)


def _alone(shuffle):
    """One shuffle is a one-stage cascade: there is no second verifier."""
    return TupleCascade(stages=[shuffle])


@pytest.fixture()
def pairs(group, elgamal, dkg):
    """(vote, credential) ciphertext pairs for five distinct plaintexts."""
    return [
        (
            elgamal.encrypt(dkg.public_key, group.encode_int(value % 2)),
            elgamal.encrypt(dkg.public_key, group.power(100 + value)),
        )
        for value in range(5)
    ]


@pytest.fixture()
def singles(group, elgamal, dkg):
    """Five distinct plaintexts as 1-tuples — the registration-tag arity."""
    return [(elgamal.encrypt(dkg.public_key, group.power(value)),) for value in range(5)]


def _plaintexts(group, dkg, items):
    return sorted(group.decode_int(dkg.decrypt(item[0])) for item in items)


class TestPermutation:
    def test_random_permutation_is_a_permutation(self):
        for n in [1, 2, 5, 20]:
            assert sorted(random_permutation(n)) == list(range(n))

    def test_zero_length(self):
        assert random_permutation(0) == []


class TestTupleShuffle:
    def test_honest_shuffle_verifies(self, elgamal, dkg, pairs, cascade_report):
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, pairs, rounds=6)
        assert cascade_report(elgamal, dkg.public_key, pairs, _alone(shuffled)).ok

    def test_pairs_stay_linked(self, group, elgamal, dkg, pairs):
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, pairs, rounds=4)
        decrypted = sorted(
            [
                (group.decode_int(dkg.decrypt(vote)), dkg.decrypt(credential))
                for vote, credential in shuffled.outputs
            ],
            key=lambda pair: pair[1].to_bytes(),
        )
        original = sorted(
            [(value % 2, group.power(100 + value)) for value in range(5)],
            key=lambda pair: pair[1].to_bytes(),
        )
        assert decrypted == original

    def test_tampered_output_rejected(self, group, elgamal, dkg, pairs, cascade_report):
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, pairs, rounds=6)
        outputs = list(shuffled.outputs)
        outputs[0] = (outputs[0][0], elgamal.encrypt(dkg.public_key, group.power(999)))
        tampered = TupleShuffle(outputs=outputs, rounds=shuffled.rounds)
        assert not cascade_report(elgamal, dkg.public_key, pairs, _alone(tampered)).ok

    @pytest.mark.parametrize(
        "pinned, locus",
        [
            ({}, None),
            ({"num_mixers": 3, "proof_rounds": 3}, None),
            ({"num_mixers": 4}, "cascade.stages"),
            ({"proof_rounds": 4}, "cascade[0].rounds"),
        ],
    )
    def test_cascade(self, elgamal, dkg, pairs, cascade_report, pinned, locus):
        """An honest cascade passes unpinned and pinned to its own shape, and
        is a proof of a weaker claim when the auditor expected more."""
        cascade = tuple_mix_cascade(elgamal, dkg.public_key, pairs, num_mixers=3, rounds=3)
        assert len(cascade.stages) == 3
        report = cascade_report(elgamal, dkg.public_key, pairs, cascade, **pinned)
        assert report.ok == (locus is None)
        assert locus is None or report.first_failure.name == locus

    def test_single_tuples(self, group, elgamal, dkg, cascade_report):
        singles = [(elgamal.encrypt(dkg.public_key, group.power(value)),) for value in range(3)]
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, singles, rounds=4)
        assert cascade_report(elgamal, dkg.public_key, singles, _alone(shuffled)).ok

    @pytest.mark.parametrize("audit_spec", ["eager", "batched", "batched:4", "dist:4"])
    def test_shuffle_without_rounds_proves_nothing(self, group, elgamal, dkg, pairs, audit_spec, cascade_report):
        """``rounds=[]`` with any outputs used to verify under every entry point."""
        substituted = [
            (elgamal.encrypt(dkg.public_key, group.encode_int(1)), credential) for _, credential in pairs
        ]
        for outputs in (substituted, substituted[:2], []):
            forged = TupleShuffle(outputs=outputs, rounds=[])
            assert not cascade_report(elgamal, dkg.public_key, pairs, _alone(forged), audit_spec=audit_spec).ok
        assert not cascade_report(
            elgamal, dkg.public_key, pairs, TupleCascade(stages=[]), audit_spec=audit_spec
        ).ok


class TestSingleCiphertextShuffle:
    """Arity 1 (what ``crypto/shuffle.py`` used to fork): same code, same verifier."""

    def test_preserves_multiset_of_plaintexts(self, group, elgamal, dkg, singles):
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, singles, rounds=2)
        assert _plaintexts(group, dkg, shuffled.outputs) == list(range(5))

    def test_outputs_differ_from_inputs(self, elgamal, dkg, singles):
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, singles, rounds=2)
        assert all(output not in singles for output in shuffled.outputs)

    def test_honest_shuffle_verifies_with_one_round_per_requested_bit(self, elgamal, dkg, singles, cascade_report):
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, singles, rounds=6)
        assert len(shuffled.rounds) == 6
        assert cascade_report(elgamal, dkg.public_key, singles, _alone(shuffled), proof_rounds=6).ok

    def test_tampered_output_rejected(self, group, elgamal, dkg, singles, cascade_report):
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, singles, rounds=8)
        outputs = [(elgamal.encrypt(dkg.public_key, group.power(99)),)] + shuffled.outputs[1:]
        tampered = TupleShuffle(outputs=outputs, rounds=shuffled.rounds)
        assert not cascade_report(elgamal, dkg.public_key, singles, _alone(tampered)).ok

    def test_reordered_output_rejected(self, elgamal, dkg, singles, cascade_report):
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, singles, rounds=8)
        reordered = TupleShuffle(outputs=list(reversed(shuffled.outputs)), rounds=shuffled.rounds)
        assert not cascade_report(elgamal, dkg.public_key, singles, _alone(reordered)).ok

    def test_proof_bound_to_inputs(self, group, elgamal, dkg, singles, cascade_report):
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, singles, rounds=8)
        others = [(elgamal.encrypt(dkg.public_key, group.power(value + 10)),) for value in range(5)]
        assert not cascade_report(elgamal, dkg.public_key, others, _alone(shuffled)).ok

    def test_single_element_shuffle(self, group, elgamal, dkg, cascade_report):
        single = [(elgamal.encrypt(dkg.public_key, group.power(1)),)]
        shuffled = shuffle_tuples_with_proof(elgamal, dkg.public_key, single, rounds=4)
        assert cascade_report(elgamal, dkg.public_key, single, _alone(shuffled)).ok

    def test_empty_inputs(self, elgamal, dkg, cascade_report):
        cascade = tuple_mix_cascade(elgamal, dkg.public_key, [], num_mixers=2, rounds=2)
        assert cascade.outputs == []
        assert cascade_report(elgamal, dkg.public_key, [], cascade, num_mixers=2, proof_rounds=2).ok
        assert TupleCascade(stages=[]).outputs == []
        assert cascade_report(elgamal, dkg.public_key, [], TupleCascade(stages=[])).ok

    def test_cascade_verifies_and_preserves_plaintexts(self, group, elgamal, dkg, singles, cascade_report):
        cascade = tuple_mix_cascade(elgamal, dkg.public_key, singles, num_mixers=3, rounds=4)
        assert cascade_report(elgamal, dkg.public_key, singles, cascade).ok
        assert _plaintexts(group, dkg, cascade.outputs) == list(range(5))

    def test_cascade_has_one_stage_per_mixer(self, elgamal, dkg, singles):
        cascade = tuple_mix_cascade(elgamal, dkg.public_key, singles, num_mixers=4, rounds=2)
        assert len(cascade.stages) == 4

    def test_tampered_middle_stage_detected(self, group, elgamal, dkg, singles, cascade_report):
        cascade = tuple_mix_cascade(elgamal, dkg.public_key, singles, num_mixers=2, rounds=4)
        tampered_stage = TupleShuffle(
            outputs=[(elgamal.encrypt(dkg.public_key, group.power(7)),)] * len(singles),
            rounds=cascade.stages[0].rounds,
        )
        tampered = TupleCascade(stages=[tampered_stage, cascade.stages[1]])
        assert not cascade_report(elgamal, dkg.public_key, singles, tampered).ok


class TestDeduplication:
    def _record(self, group, keypair, value: int) -> BallotRecord:
        from repro.crypto.elgamal import ElGamal

        ciphertext = ElGamal(group).encrypt(group.power(3), group.encode_int(value))
        return BallotRecord(
            credential_public_key=keypair.public,
            ciphertext_c1=ciphertext.c1,
            ciphertext_c2=ciphertext.c2,
            signature=schnorr_sign(keypair, b"b"),
        )

    def test_last_ballot_per_credential_wins(self, group):
        keypair = schnorr_keygen(group)
        first = self._record(group, keypair, 0)
        second = self._record(group, keypair, 1)
        deduplicated = deduplicate_ballots([first, second])
        assert deduplicated == [second]

    def test_distinct_credentials_kept(self, group):
        a = self._record(group, schnorr_keygen(group), 0)
        b = self._record(group, schnorr_keygen(group), 1)
        assert len(deduplicate_ballots([a, b])) == 2

    def test_empty_input(self):
        assert deduplicate_ballots([]) == []


class TestTagFiltering:
    def test_real_counted_fake_discarded(self, group, elgamal, dkg):
        tagging = TaggingAuthority.create(group, dkg.num_members)
        real = schnorr_keygen(group)
        fake = schnorr_keygen(group)
        registration_tag = elgamal.encrypt(dkg.public_key, real.public)
        mixed_pairs = [
            (elgamal.encrypt(dkg.public_key, group.encode_int(1)), elgamal.encrypt(dkg.public_key, real.public)),
            (elgamal.encrypt(dkg.public_key, group.encode_int(0)), elgamal.encrypt(dkg.public_key, fake.public)),
        ]
        result = filter_ballots(dkg, tagging, mixed_pairs, [registration_tag])
        assert len(result.counted) == 1
        assert result.discarded == 1
        assert group.decode_int(dkg.decrypt(result.counted[0])) == 1

    def test_at_most_one_ballot_per_registration(self, group, elgamal, dkg):
        """A second ballot with the same (real) credential counts as a duplicate."""
        tagging = TaggingAuthority.create(group, dkg.num_members)
        real = schnorr_keygen(group)
        registration_tag = elgamal.encrypt(dkg.public_key, real.public)
        pair = lambda v: (
            elgamal.encrypt(dkg.public_key, group.encode_int(v)),
            elgamal.encrypt(dkg.public_key, real.public),
        )
        result = filter_ballots(dkg, tagging, [pair(1), pair(0)], [registration_tag])
        assert len(result.counted) == 1
        assert result.duplicate_tags == 1

    def test_no_registrations_counts_nothing(self, group, elgamal, dkg):
        tagging = TaggingAuthority.create(group, dkg.num_members)
        fake = schnorr_keygen(group)
        pairs = [
            (elgamal.encrypt(dkg.public_key, group.encode_int(0)), elgamal.encrypt(dkg.public_key, fake.public))
        ]
        result = filter_ballots(dkg, tagging, pairs, [])
        assert result.counted == []
        assert result.discarded == 1

    def test_tags_exposed_for_audit(self, group, elgamal, dkg):
        tagging = TaggingAuthority.create(group, dkg.num_members)
        real = schnorr_keygen(group)
        registration_tag = elgamal.encrypt(dkg.public_key, real.public)
        pairs = [
            (elgamal.encrypt(dkg.public_key, group.encode_int(1)), elgamal.encrypt(dkg.public_key, real.public))
        ]
        result = filter_ballots(dkg, tagging, pairs, [registration_tag])
        assert result.ballot_tags[0] == result.registration_tags[0]
