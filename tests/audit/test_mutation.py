"""Audit soundness under evidence mutation (stateless-model-checking spirit).

For each evidence class — ballot proof, shuffle transcript, decryption
share, tag chain (both families), ledger batch chain, ledger hash chain —
flip one byte (or the minimal scalar/element perturbation the type allows)
and assert that *all three strategies* reject with the *same failure
locus*.  On valid elections the three strategies must produce bit-identical
:class:`~repro.audit.api.AuditReport` outcomes; on mutated evidence the
streaming report may truncate after the failing shard but must agree with
the eager report on everything it checked.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.audit.api import AuditPlan, BatchedVerifier, EagerVerifier, StreamingVerifier
from repro.audit.checks import audit_election, audit_tally, ballot_checks, cascade_checks, decryption_checks
from repro.audit.evidence import decryption_transcript
from repro.audit.api import Check
from repro.crypto.elgamal import ElGamal, ElGamalCiphertext
from repro.crypto.schnorr import schnorr_keygen
from repro.crypto.tagging import TaggingAuthority
from repro.election import ElectionConfig, VotegralElection
from repro.ledger.backends.batched import BatchSummary, BatchedBoard
from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.log import AppendOnlyLog
from repro.tally.decrypt import aggregate, decrypt_votes
from repro.tally.filter import filter_ballots
from repro.tally.mixnet import (
    TupleCascade,
    TupleOpening,
    TupleShuffle,
    tuple_mix_cascade,
)
from repro.tally.pipeline import TallyPipeline
from repro.voting.ballot import make_ballot

STRATEGIES = {
    "eager": lambda: EagerVerifier(),
    "batched": lambda: BatchedVerifier(chunk_size=4),
    "stream": lambda: StreamingVerifier(shard_size=3, queue_depth=1),
}


def _flip_byte(data: bytes, position: int = 0) -> bytes:
    mutated = bytearray(data)
    mutated[position % len(mutated)] ^= 0x01
    return bytes(mutated)


def _run_all(plan_factory):
    return {name: factory().run(plan_factory()) for name, factory in STRATEGIES.items()}


def _assert_same_rejection(reports, expected_locus=None):
    """All strategies reject, agree on the locus, and agree on shared prefixes."""
    eager = reports["eager"]
    assert not eager.ok
    for name, report in reports.items():
        assert not report.ok, f"{name} accepted mutated evidence"
        assert report.first_failure == eager.first_failure, name
        # Whatever a (possibly truncated) report checked, it judged identically.
        assert eager.results[: len(report.results)] == report.results, name
    if expected_locus is not None:
        assert eager.first_failure.name == expected_locus
    return eager.first_failure


@pytest.fixture()
def tagging(group):
    return TaggingAuthority.create(group, 3)


class TestBallotProofMutations:
    def _plan(self, group, dkg, ballot, num_options=3):
        return lambda: AuditPlan(ballot_checks(group, dkg.public_key, ballot, num_options))

    def test_valid_ballot_accepted_identically(self, group, dkg):
        ballot = make_ballot(group, dkg.public_key, schnorr_keygen(group), 1, 3)
        reports = _run_all(self._plan(group, dkg, ballot))
        assert all(report.ok for report in reports.values())
        assert len({report.fingerprint() for report in reports.values()}) == 1

    def test_mutated_signature_rejected(self, group, dkg):
        ballot = make_ballot(group, dkg.public_key, schnorr_keygen(group), 1, 3)
        forged = replace(ballot, signature=replace(ballot.signature, response=ballot.signature.response ^ 1))
        _assert_same_rejection(
            _run_all(self._plan(group, dkg, forged)), expected_locus="ballot.signature"
        )

    def test_mutated_wellformedness_rejected(self, group, dkg):
        ballot = make_ballot(group, dkg.public_key, schnorr_keygen(group), 1, 3)
        proof = ballot.wellformedness
        tampered = replace(
            proof, responses=[proof.responses[0] ^ 1] + list(proof.responses[1:])
        )
        forged = replace(ballot, wellformedness=tampered)
        _assert_same_rejection(
            _run_all(self._plan(group, dkg, forged)), expected_locus="ballot.wellformedness"
        )

    def test_mutated_key_proof_rejected(self, group, dkg):
        ballot = make_ballot(group, dkg.public_key, schnorr_keygen(group), 1, 3)
        forged = replace(ballot, key_proof=replace(ballot.key_proof, response=ballot.key_proof.response ^ 1))
        _assert_same_rejection(
            _run_all(self._plan(group, dkg, forged)), expected_locus="ballot.credential-key-proof"
        )


class TestShuffleTranscriptMutations:
    def _cascade(self, group, dkg, count=5, mixers=2, rounds=3):
        elgamal = ElGamal(group)
        inputs = [
            (elgamal.encrypt(dkg.public_key, group.power(i + 2)),
             elgamal.encrypt(dkg.public_key, group.power(i + 9)))
            for i in range(count)
        ]
        cascade = tuple_mix_cascade(elgamal, dkg.public_key, inputs, mixers, rounds)
        return elgamal, inputs, cascade

    def test_valid_cascade_accepted_identically(self, group, dkg):
        elgamal, inputs, cascade = self._cascade(group, dkg)
        reports = _run_all(lambda: AuditPlan(cascade_checks(elgamal, dkg.public_key, inputs, cascade)))
        assert all(report.ok for report in reports.values())
        assert len({report.fingerprint() for report in reports.values()}) == 1

    def test_mutated_opening_randomness_rejected(self, group, dkg):
        elgamal, inputs, cascade = self._cascade(group, dkg)
        stage = cascade.stages[1]
        round_ = stage.rounds[2]
        opening = round_.opening
        tampered_randomness = [list(row) for row in opening.randomness]
        tampered_randomness[0][0] ^= 1
        tampered_stage = replace(
            stage,
            rounds=stage.rounds[:2]
            + [replace(round_, opening=TupleOpening(opening.permutation, tampered_randomness))]
            + stage.rounds[3:],
        )
        tampered = TupleCascade(stages=[cascade.stages[0], tampered_stage] + cascade.stages[2:])
        _assert_same_rejection(
            _run_all(lambda: AuditPlan(cascade_checks(elgamal, dkg.public_key, inputs, tampered))),
            expected_locus="cascade[1].round[2]",
        )

    def test_swapped_stages_fail_at_first_bad_coin_check(self, group, dkg):
        # A swapped stage passes all of its own checks with probability 2^-2R.
        elgamal, inputs, cascade = self._cascade(group, dkg, rounds=8)
        tampered = TupleCascade(stages=[cascade.stages[1], cascade.stages[0]])
        locus = _assert_same_rejection(
            _run_all(lambda: AuditPlan(cascade_checks(elgamal, dkg.public_key, inputs, tampered)))
        )
        # The re-derived Fiat–Shamir coins (or, when they coincide, the first
        # opening) expose the swap — either way the locus names stage 0.
        assert locus.name.startswith("cascade[0].")


class TestDecryptionShareMutations:
    def _plan(self, dkg, transcript):
        publics = [member.public for member in dkg.members]
        return lambda: AuditPlan(decryption_checks(transcript, publics, "decryption[0]"))

    def test_valid_transcript_accepted_identically(self, group, dkg):
        elgamal = ElGamal(group)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        transcript = decryption_transcript(dkg, ciphertext)
        reports = _run_all(self._plan(dkg, transcript))
        assert all(report.ok for report in reports.values())

    def test_mutated_share_response_rejected(self, group, dkg):
        elgamal = ElGamal(group)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        transcript = decryption_transcript(dkg, ciphertext)
        bad = replace(transcript.shares[1], response=transcript.shares[1].response ^ 1)
        tampered = replace(
            transcript, shares=(transcript.shares[0], bad) + transcript.shares[2:]
        )
        _assert_same_rejection(
            _run_all(self._plan(dkg, tampered)), expected_locus="decryption[0].share[2]"
        )

    def test_substituted_share_value_rejected(self, group, dkg):
        elgamal = ElGamal(group)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(5))
        transcript = decryption_transcript(dkg, ciphertext)
        bad = replace(transcript.shares[0], share=transcript.shares[0].share * group.generator)
        tampered = replace(transcript, shares=(bad,) + transcript.shares[1:])
        _assert_same_rejection(
            _run_all(self._plan(dkg, tampered)), expected_locus="decryption[0].share[1]"
        )


class TestTagChainMutations:
    def test_element_chain_mutation_rejected(self, group, tagging):
        element = group.power(7)
        tag = tagging.blind_element(element)
        tampered_step = replace(tag.steps[1], after=tag.steps[1].after * group.generator)
        tampered = replace(tag, steps=[tag.steps[0], tampered_step] + tag.steps[2:])
        plan = lambda: AuditPlan(
            [Check("tag-chain", "tag[0].chain", (tampered, element, tuple(tagging.commitments)))]
        )
        _assert_same_rejection(_run_all(plan), expected_locus="tag[0].chain")

    def test_ciphertext_chain_proof_mutation_rejected(self, group, dkg, tagging):
        elgamal = ElGamal(group)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(3))
        blinded, steps = tagging.blind_ciphertext_with_proof(ciphertext)
        bad_proof = replace(steps[0].proof_c2, response=steps[0].proof_c2.response ^ 1)
        tampered = [replace(steps[0], proof_c2=bad_proof)] + steps[1:]
        plan = lambda: AuditPlan(
            [
                Check(
                    "ciphertext-tag-chain",
                    "tag[ballot][0].blind-steps",
                    (tuple(tampered), ciphertext, blinded, tuple(tagging.commitments)),
                )
            ]
        )
        _assert_same_rejection(_run_all(plan), expected_locus="tag[ballot][0].blind-steps")

    def test_valid_chains_accepted_identically(self, group, dkg, tagging):
        elgamal = ElGamal(group)
        element = group.power(7)
        ciphertext = elgamal.encrypt(dkg.public_key, group.power(3))
        tag = tagging.blind_element(element)
        blinded, steps = tagging.blind_ciphertext_with_proof(ciphertext)
        plan = lambda: AuditPlan(
            [
                Check("tag-chain", "tag[0]", (tag, element, tuple(tagging.commitments))),
                Check(
                    "ciphertext-tag-chain",
                    "tag[1]",
                    (tuple(steps), ciphertext, blinded, tuple(tagging.commitments)),
                ),
            ]
        )
        reports = _run_all(plan)
        assert all(report.ok for report in reports.values())
        assert len({report.fingerprint() for report in reports.values()}) == 1


class TestLedgerChainMutations:
    def test_flipped_log_payload_rejected(self):
        log = AppendOnlyLog("L_V")
        for index in range(6):
            log.append(b"payload-%d" % index)
        entries = log.entries()
        entries[3] = replace(entries[3], payload=_flip_byte(entries[3].payload))
        plan = lambda: AuditPlan(
            [Check("ledger-chain", "ledger.ballot-chain", ("ballot", tuple(entries)))]
        )
        _assert_same_rejection(_run_all(plan), expected_locus="ledger.ballot-chain")

    def test_board_view_audit_chains_names_locus(self):
        from repro.ledger.api import BoardView

        backend = MemoryBackend()
        backend.publish_electoral_roll(["alice", "bob"])
        view = BoardView(backend)
        report = view.audit_chains()
        assert report.ok and view.verify_all_chains()
        assert {result.name for result in report.results} == {
            "ledger.registration-chain", "ledger.envelope-chain", "ledger.ballot-chain"
        }
        # Tamper with the live log and the locus names the chain.
        backend.registration_log._entries[0] = replace(
            backend.registration_log._entries[0],
            payload=_flip_byte(backend.registration_log._entries[0].payload),
        )
        report = view.audit_chains()
        assert not report.ok
        assert report.first_failure.name == "ledger.registration-chain"
        assert not view.verify_all_chains()

    def test_flipped_batch_digest_rejected(self, group):
        board = BatchedBoard(MemoryBackend(), batch_size=2)
        board.publish_electoral_roll([f"v{i}" for i in range(4)])
        board.flush()
        batches = [
            BatchSummary.compute_digest(0, b"\x00" * 32, [b"a", b"b"]),
        ]
        # Build a real chained batch history, then flip one digest byte.
        first = BatchSummary(0, 2, b"\x00" * 32, batches[0])
        second = BatchSummary(
            1, 1, first.digest, BatchSummary.compute_digest(1, first.digest, [b"c"])
        )
        valid = (first, second)
        plan_valid = lambda: AuditPlan([Check("batch-chain", "ledger.ingest-batches", (valid,))])
        assert all(report.ok for report in _run_all(plan_valid).values())

        tampered = (first, replace(second, previous_digest=_flip_byte(second.previous_digest)))
        plan_bad = lambda: AuditPlan([Check("batch-chain", "ledger.ingest-batches", (tampered,))])
        _assert_same_rejection(_run_all(plan_bad), expected_locus="ledger.ingest-batches")


class TestRegistrationAuditNamesLocus:
    def test_failed_record_names_predicate(self, group, small_setup):
        from repro.registration.official import RegistrationOfficial

        record = None
        from repro.registration.protocol import RegistrationSession
        from repro.registration.voter import Voter

        session = RegistrationSession(setup=small_setup)
        outcome = session.register(Voter("alice"))
        record = outcome.record
        keys = small_setup.registrar.kiosk_public_keys
        assert RegistrationOfficial.verify_record(record, keys)

        forged = replace(record, official_signature=replace(
            record.official_signature, response=record.official_signature.response ^ 1
        ))
        report = RegistrationOfficial.audit_record(forged, keys)
        assert not report.ok
        assert report.first_failure.name == "registration[alice].official-signature"

        unauthorized = replace(record, kiosk_public_key=group.generator)
        report = RegistrationOfficial.audit_record(unauthorized, keys)
        assert not report.ok
        assert report.first_failure.name == "registration[alice].kiosk-authorized"

    def test_failed_rotation_names_record(self, group):
        from repro.crypto.hashing import sha256
        from repro.crypto.schnorr import schnorr_sign
        from repro.registration.extensions import RotationRecord, audit_rotation

        old = schnorr_keygen(group)
        new = schnorr_keygen(group)
        record = RotationRecord(
            old_public_key=old.public,
            new_public_key=new.public,
            signature=schnorr_sign(
                old, sha256(b"credential-rotation", old.public.to_bytes(), new.public.to_bytes())
            ),
        )
        assert audit_rotation(record).ok
        forged = replace(record, new_public_key=record.new_public_key * group.generator)
        report = audit_rotation(forged)
        assert not report.ok
        locus = record.old_public_key.to_bytes().hex()[:12]
        assert report.first_failure.name == f"rotation[{locus}].signature"


# ---------------------------------------------------------------------------
# Enumerated structural mutations of the published mix cascades
# ---------------------------------------------------------------------------
#
# One verifier, so its structural mutation space can be listed instead of
# sampled: for both cascades and every stage, each way a transcript can lose
# or gain rounds, stages or items is rejected at the locus that names it,
# with the same first failure under every strategy.

SPECS = ("eager", "batched:8", "stream:4:1", "dist:4")
FULL_PLAN_SPECS = ("eager", "batched:8", "dist:4")  # stream stops at the first failing shard
MIXERS = 3
# Every mutation below but one fails an integer predicate.  Swapping two
# stages keeps the shape, and a swapped stage passes all of its own proof
# checks with probability 2^-2R (its coins coincide and every round opens
# the output side): eight rounds put that below 2^-16 per case.
ROUNDS = 8
CASCADES = {"registration-mix": "registration_cascade", "ballot-mix": "ballot_cascade"}


@pytest.fixture(scope="module")
def tallied():
    """One small election and its honest tally: (election, tagging, result)."""
    config = ElectionConfig(num_voters=4, num_options=2, num_mixers=MIXERS, proof_rounds=ROUNDS)
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    election.run_voting(rng=random.Random(17))
    tagging = TaggingAuthority.create(election.group, election.setup.authority.num_members)
    result = TallyPipeline(
        election.group, election.setup.authority, MIXERS, ROUNDS, tagging=tagging
    ).run(election.setup.board, config.num_options, config.election_id)
    yield election, tagging, result
    election.close()


def _audit(election, result, spec, pinned=True):
    pins = {"num_mixers": MIXERS, "proof_rounds": ROUNDS} if pinned else {}
    return audit_tally(
        election.group, election.setup.authority, election.setup.board, result,
        election_id=election.config.election_id, verifier=spec, **pins,
    )


def _assert_rejected_alike(reports, locus=None, prefix=None):
    """Every strategy rejects at one locus; the full-plan strategies fingerprint alike."""
    eager = reports["eager"]
    for spec, report in reports.items():
        assert not report.ok, f"{spec} accepted the mutation"
        assert report.first_failure == eager.first_failure, spec
        assert eager.results[: len(report.results)] == report.results, spec
    assert len({reports[spec].fingerprint() for spec in FULL_PLAN_SPECS}) == 1
    name = eager.first_failure.name
    assert (name == locus) if locus is not None else name.startswith(prefix), name
    return eager.first_failure


def _restage(stages, index, **changes):
    return stages[:index] + [replace(stages[index], **changes)] + stages[index + 1:]


#: name → (stages, stage index → mutated stages, expected locus template).
STAGE_MUTATIONS = {
    "drop-all-rounds": (lambda s, i: _restage(s, i, rounds=[]), "{label}[{i}].rounds"),
    "drop-one-round": (lambda s, i: _restage(s, i, rounds=s[i].rounds[:-1]), "{label}[{i}].rounds"),
    "drop-stage": (lambda s, i: s[:i] + s[i + 1:], "{label}.stages"),
    "duplicate-stage": (lambda s, i: s[: i + 1] + s[i:], "{label}.stages"),
    "truncate-outputs": (lambda s, i: _restage(s, i, outputs=s[i].outputs[:-1]), "{label}[{i}].width"),
    "extend-outputs": (lambda s, i: _restage(s, i, outputs=s[i].outputs + s[i].outputs[:1]), "{label}[{i}].width"),
}


class TestCascadeStructureMutations:
    def test_honest_tally_accepted_identically_pinned_and_unpinned(self, tallied):
        election, _, result = tallied
        for pinned in (True, False):
            reports = [_audit(election, result, spec, pinned) for spec in SPECS]
            assert all(report.ok for report in reports), [r.summary() for r in reports]
            assert len({report.fingerprint() for report in reports}) == 1

    @pytest.mark.parametrize("mutation", sorted(STAGE_MUTATIONS))
    @pytest.mark.parametrize("index", range(MIXERS))
    @pytest.mark.parametrize("label", sorted(CASCADES))
    def test_stage_mutation_rejected_at_its_locus(self, tallied, label, index, mutation):
        election, _, result = tallied
        mutate, locus = STAGE_MUTATIONS[mutation]
        stages = mutate(list(getattr(result, CASCADES[label]).stages), index)
        forged = replace(result, **{CASCADES[label]: TupleCascade(stages=stages)})
        failure = _assert_rejected_alike(
            {spec: _audit(election, forged, spec) for spec in SPECS},
            locus=locus.format(label=label, i=index),
        )
        assert failure.kind == "predicate"

    @pytest.mark.parametrize("index", range(MIXERS - 1))
    @pytest.mark.parametrize("label", sorted(CASCADES))
    def test_swapped_stages_fail_the_first_swapped_proof(self, tallied, label, index):
        """Shape intact (counts, widths, rounds all match): only the proofs can tell."""
        election, _, result = tallied
        stages = list(getattr(result, CASCADES[label]).stages)
        stages[index], stages[index + 1] = stages[index + 1], stages[index]
        forged = replace(result, **{CASCADES[label]: TupleCascade(stages=stages)})
        for pinned in (True, False):
            failure = _assert_rejected_alike(
                {spec: _audit(election, forged, spec, pinned) for spec in SPECS},
                prefix=f"{label}[{index}].",
            )
            assert failure.kind in ("shuffle-coins", "shuffle-round")

    def test_truncated_and_extended_outputs_rejected_unpinned_too(self, tallied):
        election, _, result = tallied
        for mutation in ("truncate-outputs", "extend-outputs", "drop-all-rounds"):
            mutate, locus = STAGE_MUTATIONS[mutation]
            forged = replace(
                result, ballot_cascade=TupleCascade(stages=mutate(list(result.ballot_cascade.stages), 1))
            )
            _assert_rejected_alike(
                {spec: _audit(election, forged, spec, pinned=False) for spec in SPECS},
                locus=locus.format(label="ballot-mix", i=1),
            )


def _republish(election, tagging, result, ballot_cascade):
    """What a cheating tally service publishes around a forged ballot cascade.

    Filter, decryption and counts are honestly recomputed *from the forged
    outputs*, so every downstream invariant holds and only the cascade's own
    obligations stand between the forgery and ``ok``.
    """
    authority = election.setup.authority
    mixed_registrations = [item[0] for item in result.registration_cascade.outputs]
    filter_result = filter_ballots(
        authority, tagging, [(vote, credential) for vote, credential in ballot_cascade.outputs],
        mixed_registrations,
    )
    votes = decrypt_votes(authority, filter_result.counted, result.num_options)
    return replace(
        result,
        ballot_cascade=ballot_cascade,
        filter_result=filter_result,
        votes=votes,
        counts=aggregate(votes, result.num_options),
        num_counted=len(filter_result.counted),
        num_discarded=filter_result.discarded + filter_result.duplicate_tags,
    )


def _ballot_inputs(election):
    """The ballot-mix inputs as any auditor re-derives them from the ledger."""
    authority = election.setup.authority
    elgamal = ElGamal(election.group)
    records = TallyPipeline(election.group, authority)._valid_ballots(
        election.setup.board, election.config.election_id
    )
    return elgamal, [
        (
            ElGamalCiphertext(record.ciphertext_c1, record.ciphertext_c2),
            elgamal.encrypt(authority.public_key, record.credential_public_key, randomness=0),
        )
        for record in records
    ]


class TestZeroRoundForgery:
    """One stage with ``rounds=[]`` (or no stage at all): accepted by every verifier before."""

    #: forgery → the locus an auditor without the election parameters reports;
    #: one who pins them reports ``ballot-mix.stages`` for all three.
    UNPINNED_LOCUS = {
        "substituted": "ballot-mix[0].rounds",
        "wrong-length": "ballot-mix[0].width",
        "empty": "ballot-mix.stages",
    }

    def _forged(self, election, tagging, result, name):
        """(re-derived ballot inputs, the forged cascade, the result published around it)."""
        elgamal, inputs = _ballot_inputs(election)
        public_key = election.setup.authority.public_key
        stolen = [
            (elgamal.encrypt(public_key, election.group.encode_int(0)), credential)
            for _, credential in inputs
        ]
        cascade = {
            "substituted": TupleCascade(stages=[TupleShuffle(outputs=stolen, rounds=[])]),
            "wrong-length": TupleCascade(stages=[TupleShuffle(outputs=stolen[:-1], rounds=[])]),
            "empty": TupleCascade(stages=[]),
        }[name]
        return inputs, cascade, _republish(election, tagging, result, cascade)

    def test_the_forgeries_change_the_outcome_and_are_otherwise_consistent(self, tallied):
        election, tagging, result = tallied
        _, _, stolen = self._forged(election, tagging, result, "substituted")
        assert stolen.counts == {0: result.num_counted, 1: 0} != result.counts
        report = _audit(election, stolen, "eager", pinned=False)
        assert [failure.name for failure in report.failures] == ["ballot-mix[0].rounds"]
        _, _, voided = self._forged(election, tagging, result, "empty")
        assert voided.num_counted == 0 and sum(voided.counts.values()) == 0
        report = _audit(election, voided, "eager", pinned=False)
        assert [failure.name for failure in report.failures] == ["ballot-mix.stages"]

    @pytest.mark.parametrize("name", sorted(UNPINNED_LOCUS))
    def test_rejected_by_every_front_door_under_every_strategy(self, tallied, name, cascade_report):
        election, tagging, result = tallied
        inputs, cascade, forged = self._forged(election, tagging, result, name)
        setup, config = election.setup, election.config
        for pinned, locus in ((True, "ballot-mix.stages"), (False, self.UNPINNED_LOCUS[name])):
            pins = {"num_mixers": MIXERS, "proof_rounds": ROUNDS} if pinned else {}
            _assert_rejected_alike(
                {spec: _audit(election, forged, spec, pinned) for spec in SPECS}, locus=locus
            )
            _assert_rejected_alike(
                {
                    spec: audit_election(
                        setup.board, config if pinned else None, authority=setup.authority,
                        result=forged, verifier=spec,
                    )
                    for spec in SPECS
                },
                locus=locus,
            )
            # The cascade on its own, as a mix auditor holds it: same locus.
            _assert_rejected_alike(
                {
                    spec: cascade_report(
                        ElGamal(election.group), setup.authority.public_key, inputs, cascade,
                        audit_spec=spec, label="ballot-mix", **pins,
                    )
                    for spec in SPECS
                },
                locus=locus,
            )

    def test_pinned_parameters_reject_a_weaker_honest_proof(self, tallied):
        """Fewer mixers or rounds than configured is a valid proof of a weaker claim."""
        election, _, result = tallied
        assert _audit(election, result, "batched", pinned=False).ok
        for pins, locus in (
            ({"num_mixers": MIXERS + 1}, "registration-mix.stages"),
            ({"proof_rounds": ROUNDS + 1}, "registration-mix[0].rounds"),
        ):
            reports = {
                spec: audit_tally(
                    election.group, election.setup.authority, election.setup.board, result,
                    verifier=spec, **pins,
                )
                for spec in SPECS
            }
            _assert_rejected_alike(reports, locus=locus)

    def test_zero_mixers_counts_nothing_and_audits_ok_only_when_pinned_as_zero(self, tallied):
        election, tagging, _ = tallied
        setup, config = election.setup, election.config
        result = TallyPipeline(election.group, setup.authority, 0, ROUNDS, tagging=tagging).run(
            setup.board, config.num_options, config.election_id
        )
        assert result.num_counted == 0
        assert audit_tally(
            election.group, setup.authority, setup.board, result, num_mixers=0, proof_rounds=ROUNDS
        ).ok
        unpinned = audit_tally(election.group, setup.authority, setup.board, result)
        assert unpinned.first_failure.name == "registration-mix.stages"
