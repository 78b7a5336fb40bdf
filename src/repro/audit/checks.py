"""Plan builders: turn domain objects into typed checks, plus the front door.

Builders are pure functions from published artifacts (ballots, cascades,
boards, evidence bundles) to lists of :class:`~repro.audit.api.Check`; the
``audit_*`` entry points run one-object plans and return the report, while
:func:`tally_audit_plan` / :func:`audit_election` assemble the whole
election into a single plan for any strategy.

Locus naming convention: ``<surface>[<index-or-id>].<predicate>`` — e.g.
``ballot-mix[2].round[5]``, ``registration[voter-0007].kiosk-signature``,
``tag[ballot][3].share[2]`` — so a failed audit names the offending record
and predicate without any log archaeology.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.crypto.chaum_pedersen import commits_match
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamal, ElGamalCiphertext
from repro.crypto.group import Group, GroupElement
from repro.audit.api import AuditPlan, AuditReport, Check, Verifier, verifier_from_spec
from repro.audit.evidence import DecryptionTranscript, TagChainEvidence, TallyEvidence
from repro.audit.kinds import (
    _contains,
    _int_le,
    _is_present,
    _join_consistent,
    _product_binds,
    _tag_bytes_match,
    _transcript_value_is,
    _values_equal,
    _vote_decodes,
)
from repro.ledger.api import as_board_view
from repro.ledger.records import RegistrationRecord
from repro.registration.materials import check_out_message
from repro.registration.official import official_approval_message
from repro.runtime.executor import Executor


def _count_check(name: str, actual: int, pinned: Optional[int], floor: int) -> Check:
    """A public size: exactly ``pinned`` when the auditor supplies it, else ``>= floor``."""
    if pinned is None:
        return Check("predicate", name, (_int_le, floor, actual))
    return Check("predicate", name, (_values_equal, actual, pinned))


# ---------------------------------------------------------------------------
# Per-artifact builders
# ---------------------------------------------------------------------------


def ballot_checks(
    group: Group,
    authority_public_key: GroupElement,
    ballot,
    num_options: int,
    label: str = "ballot",
) -> List[Check]:
    """The four proof obligations of one cast ballot."""
    return [
        Check(
            "schnorr",
            f"{label}.signature",
            (ballot.credential_public_key, ballot.signed_message(), ballot.signature),
        ),
        Check(
            "predicate",
            f"{label}.key-binding",
            (_values_equal, ballot.key_proof.value, ballot.credential_public_key),
        ),
        Check("dlog", f"{label}.credential-key-proof", (ballot.key_proof, b"ballot-credential-key")),
        Check(
            "wellformedness",
            f"{label}.wellformedness",
            (group, authority_public_key, ballot.ciphertext, ballot.wellformedness, num_options),
        ),
    ]


def registration_record_checks(
    record: RegistrationRecord,
    kiosk_public_keys: Optional[Sequence[GroupElement]] = None,
    label: Optional[str] = None,
) -> List[Check]:
    """Kiosk authorization (when the key list is known) plus both signatures."""
    label = label if label is not None else f"registration[{record.voter_id}]"
    public_credential = ElGamalCiphertext(record.public_credential_c1, record.public_credential_c2)
    checks: List[Check] = []
    if kiosk_public_keys is not None:
        checks.append(
            Check(
                "predicate",
                f"{label}.kiosk-authorized",
                (_contains, tuple(kiosk_public_keys), record.kiosk_public_key),
            )
        )
    checks.append(
        Check(
            "schnorr",
            f"{label}.kiosk-signature",
            (record.kiosk_public_key, check_out_message(record.voter_id, public_credential), record.kiosk_signature),
        )
    )
    checks.append(
        Check(
            "schnorr",
            f"{label}.official-signature",
            (
                record.official_public_key,
                official_approval_message(record.voter_id, public_credential, record.kiosk_signature),
                record.official_signature,
            ),
        )
    )
    return checks


def registration_activation_checks(
    commit_code,
    response_code,
    envelope,
    credential_public: GroupElement,
    transcript,
    kiosk_public_keys: Sequence[GroupElement],
    envelope_commitment,
    label: str = "activation",
) -> List[Check]:
    """What a voter's device re-checks on the three QR codes of a paper credential (Fig. 11).

    In the order the device reports them: the kiosk is an authorised one, its
    signatures on the commit and response codes, the printer's signature on
    the envelope challenge, that the printer committed to the challenge on
    ``L_E`` (``envelope_commitment`` is what the ledger holds for it, or
    ``None``), and that the commit code's printed ``(Y1, Y2)`` is
    ``transcript``'s commit — the transcript the three codes add up to, its
    commit recomputed from the challenge and response
    (:func:`~repro.crypto.chaum_pedersen.chaum_pedersen_commitment`).  Every
    check compares encodings with a recomputed element; the codes' ``R``,
    ``Y1`` and ``Y2`` may be bytes no one decoded, so the plan is for
    per-item verdicts, not folds.
    """
    kiosk_key = response_code.kiosk_public_key
    return [
        Check("predicate", f"{label}.kiosk-authorized", (_contains, tuple(kiosk_public_keys), kiosk_key)),
        Check(
            "schnorr",
            f"{label}.commit-signature",
            (kiosk_key, commit_code.signed_message(), commit_code.kiosk_signature),
        ),
        Check(
            "schnorr",
            f"{label}.response-signature",
            (
                kiosk_key,
                response_code.signed_message(credential_public, envelope.challenge, response_code.zkp_response),
                response_code.kiosk_signature,
            ),
        ),
        Check(
            "schnorr",
            f"{label}.printer-signature",
            (envelope.printer_public_key, envelope.challenge_hash, envelope.printer_signature),
        ),
        Check("predicate", f"{label}.envelope-committed", (_is_present, envelope_commitment)),
        Check("predicate", f"{label}.zkp", (commits_match, transcript.commit, commit_code.commit)),
    ]


def rotation_checks(record, label: Optional[str] = None) -> List[Check]:
    """The single signature obligation of a credential rotation record."""
    if label is None:
        label = f"rotation[{record.old_public_key.to_bytes().hex()[:12]}]"
    return [
        Check("schnorr", f"{label}.signature", (record.old_public_key, record.message(), record.signature))
    ]


def cascade_checks(
    elgamal: ElGamal,
    public_key: GroupElement,
    inputs: Sequence,
    cascade,
    label: str = "cascade",
    num_mixers: Optional[int] = None,
    proof_rounds: Optional[int] = None,
) -> List[Check]:
    """Every obligation of a mix cascade — the only place a mix proof is judged.

    Shape first, as integer predicates: ``{label}.stages``, then per stage
    ``{label}[i].width`` (a mixer neither drops nor adds items) and
    ``{label}[i].rounds`` — a transcript with no rounds has no proof to fail,
    so the round count *is* the soundness parameter.  ``num_mixers`` /
    ``proof_rounds`` are the auditor's own election parameters (never read
    from the published result) and are pinned exactly when given; without
    them the floor applies: non-empty inputs need a stage, every stage a round.

    Then the proofs: per-stage Fiat–Shamir coins and per-round openings.
    Under the batched strategy the ``shuffle-round`` checks of *all* stages
    fold their re-encryption openings into their chunk's one RLC product —
    the largest single saving in tally verification.
    """
    from repro.tally.mixnet import round_mapping_sides

    shape = [_count_check(f"{label}.stages", len(cascade.stages), num_mixers, min(1, len(inputs)))]
    proofs: List[Check] = []
    current = list(inputs)
    for stage_index, stage in enumerate(cascade.stages):
        here = f"{label}[{stage_index}]"
        shape.append(Check("predicate", f"{here}.width", (_values_equal, len(stage.outputs), len(current))))
        shape.append(_count_check(f"{here}.rounds", len(stage.rounds), proof_rounds, 1))
        proofs.append(Check("shuffle-coins", f"{here}.coins", (tuple(current), stage)))
        for round_index, round_ in enumerate(stage.rounds):
            sources, targets = round_mapping_sides(current, stage.outputs, round_)
            proofs.append(
                Check(
                    "shuffle-round",
                    f"{here}.round[{round_index}]",
                    (elgamal, public_key, tuple(sources), tuple(targets), round_.opening),
                )
            )
        current = stage.outputs
    return shape + proofs


def chain_checks(board, label: str = "ledger") -> List[Check]:
    """One chain-walk check per sub-ledger.

    Evidence is a snapshot of the log entries (not the live log), so chain
    checks survive pickling into cluster workers and keep auditing what was
    read even if the board keeps ingesting.
    """
    return [
        Check("ledger-chain", f"{label}.{name}-chain", (name, tuple(log.entries())))
        for name, log in as_board_view(board).chain_logs()
    ]


def decryption_checks(
    transcript: DecryptionTranscript,
    member_public_keys: Sequence[GroupElement],
    label: str,
) -> List[Check]:
    """One quorum-binding predicate plus one share proof per authority member."""
    checks = [
        Check(
            "predicate",
            f"{label}.quorum",
            (_values_equal, tuple(transcript.public_shares), tuple(member_public_keys)),
        )
    ]
    for member, (public_share, share) in enumerate(
        zip(transcript.public_shares, transcript.shares), start=1
    ):
        checks.append(
            Check(
                "decryption-share",
                f"{label}.share[{member}]",
                (public_share, transcript.ciphertext, share),
            )
        )
    return checks


def _tag_evidence_checks(
    evidence: TagChainEvidence,
    commitments: Sequence[GroupElement],
    member_public_keys: Sequence[GroupElement],
    expected_source: ElGamalCiphertext,
    expected_tag_bytes: bytes,
    label: str,
) -> List[Check]:
    checks = [
        Check("predicate", f"{label}.source", (_values_equal, evidence.source, expected_source)),
        Check(
            "ciphertext-tag-chain",
            f"{label}.blind-steps",
            (evidence.steps, evidence.source, evidence.blinded, tuple(commitments)),
        ),
        Check(
            "predicate",
            f"{label}.decryption-input",
            (_values_equal, evidence.decryption.ciphertext, evidence.blinded),
        ),
    ]
    checks.extend(decryption_checks(evidence.decryption, member_public_keys, label))
    checks.append(
        Check("predicate", f"{label}.value", (_transcript_value_is, evidence.decryption, evidence.tag))
    )
    checks.append(
        Check("predicate", f"{label}.published", (_tag_bytes_match, evidence.tag, expected_tag_bytes))
    )
    return checks


def evidence_checks(
    group: Group,
    authority_public_key: GroupElement,
    result,
    evidence: TallyEvidence,
    mixed_registrations: Sequence[ElGamalCiphertext],
) -> List[Check]:
    """Checks over the published tagging/decryption evidence bundle.

    Binds the bundle to the election (member keys multiply to the authority
    key), re-checks every tagging chain and decryption share, and ties each
    transcript back to the published filter tags and vote list.
    """
    # Count predicates anchor every evidence list to an *independently
    # verified* quantity — the cascade outputs re-derived from the ledger and
    # the published vote list — never only to other attacker-published lists;
    # the per-entry loops below then zip safely (a fabricated surplus entry
    # cannot pass unchecked: the count check covering it has already failed).
    mixed_pairs = result.ballot_cascade.outputs
    checks: List[Check] = [
        Check(
            "predicate",
            "evidence.member-keys-bind",
            (_product_binds, tuple(evidence.member_public_keys), authority_public_key),
        ),
        Check(
            "predicate",
            "evidence.registration-tag-count",
            (
                _values_equal,
                (len(evidence.registration_tags), len(result.filter_result.registration_tags)),
                (len(mixed_registrations), len(mixed_registrations)),
            ),
        ),
        Check(
            "predicate",
            "evidence.ballot-tag-count",
            (
                _values_equal,
                (len(evidence.ballot_tags), len(result.filter_result.ballot_tags)),
                (len(mixed_pairs), len(mixed_pairs)),
            ),
        ),
        Check(
            "predicate",
            "evidence.decryption-count",
            (
                _values_equal,
                (len(evidence.decryptions), len(result.filter_result.counted), result.num_counted),
                (len(result.votes), len(result.votes), len(result.votes)),
            ),
        ),
    ]
    for index, tag_evidence in enumerate(evidence.registration_tags):
        if index >= len(mixed_registrations) or index >= len(result.filter_result.registration_tags):
            break
        checks.extend(
            _tag_evidence_checks(
                tag_evidence,
                evidence.tagging_commitments,
                evidence.member_public_keys,
                mixed_registrations[index],
                result.filter_result.registration_tags[index],
                f"tag[registration][{index}]",
            )
        )
    for index, tag_evidence in enumerate(evidence.ballot_tags):
        if index >= len(mixed_pairs) or index >= len(result.filter_result.ballot_tags):
            break
        checks.extend(
            _tag_evidence_checks(
                tag_evidence,
                evidence.tagging_commitments,
                evidence.member_public_keys,
                mixed_pairs[index][1],
                result.filter_result.ballot_tags[index],
                f"tag[ballot][{index}]",
            )
        )
    if len(evidence.registration_tags) == len(mixed_registrations) and len(
        evidence.ballot_tags
    ) == len(mixed_pairs):
        checks.append(
            Check(
                "predicate",
                "evidence.join-consistent",
                (
                    _join_consistent,
                    tuple(tag.tag.to_bytes() for tag in evidence.registration_tags),
                    tuple(
                        (mixed_pairs[index][0], evidence.ballot_tags[index].tag.to_bytes())
                        for index in range(len(mixed_pairs))
                    ),
                    result.filter_result,
                ),
            )
        )
    for index, transcript in enumerate(evidence.decryptions):
        if index >= len(result.filter_result.counted) or index >= len(result.votes):
            break
        label = f"decryption[{index}]"
        checks.append(
            Check(
                "predicate",
                f"{label}.ciphertext",
                (_values_equal, transcript.ciphertext, result.filter_result.counted[index]),
            )
        )
        checks.extend(decryption_checks(transcript, evidence.member_public_keys, label))
        checks.append(
            Check(
                "predicate",
                f"{label}.vote",
                (_vote_decodes, group, transcript, result.num_options, result.votes[index].choice),
            )
        )
    return checks


# ---------------------------------------------------------------------------
# Whole-tally plan + front doors
# ---------------------------------------------------------------------------


def tally_audit_plan(
    group: Group,
    authority: DistributedKeyGeneration,
    board,
    result,
    election_id: str = "default",
    rotations=None,
    executor: Optional[Executor] = None,
    include_chains: bool = True,
    num_mixers: Optional[int] = None,
    proof_rounds: Optional[int] = None,
) -> AuditPlan:
    """Universal verification of a published tally against the ledger, as a plan.

    Re-derives the mix inputs from the ledger through the cursor API exactly
    as the tally did (signature-checked, deduplicated, rotation-resolved),
    then adds chain checks, both cascades' obligations (shape pinned to the
    auditor's ``num_mixers`` / ``proof_rounds`` when given, see
    :func:`cascade_checks`), the published evidence bundle (when the result
    carries one) and the count invariants.
    """
    from repro.tally.pipeline import TallyPipeline

    elgamal = ElGamal(group)
    view = as_board_view(board)
    plan = AuditPlan()
    if include_chains:
        plan.extend(chain_checks(board))

    registrations = view.current(RegistrationRecord)
    registration_inputs = [
        (ElGamalCiphertext(record.public_credential_c1, record.public_credential_c2),)
        for record in registrations
    ]
    plan.extend(
        cascade_checks(
            elgamal, authority.public_key, registration_inputs, result.registration_cascade,
            label="registration-mix", num_mixers=num_mixers, proof_rounds=proof_rounds,
        )
    )
    mixed_registrations = [
        item[0] for item in (result.registration_cascade.outputs or registration_inputs)
    ]

    # Re-derived whatever the result claims: an empty published ballot
    # cascade must not get to void the ballots on the ledger.
    valid_records = TallyPipeline(group, authority)._valid_ballots(view, election_id, executor=executor)
    if rotations is not None:
        valid_records = [
            record for record in valid_records
            if not rotations.is_retired(record.credential_public_key)
        ]

    def _credential_key(record):
        if rotations is None:
            return record.credential_public_key
        return rotations.resolve(record.credential_public_key)

    ballot_inputs = [
        (
            ElGamalCiphertext(record.ciphertext_c1, record.ciphertext_c2),
            elgamal.encrypt(authority.public_key, _credential_key(record), randomness=0),
        )
        for record in valid_records
    ]
    plan.extend(
        cascade_checks(
            elgamal, authority.public_key, ballot_inputs, result.ballot_cascade,
            label="ballot-mix",
            # The tally publishes no ballot cascade at all when no ballot is valid.
            num_mixers=num_mixers if ballot_inputs else 0, proof_rounds=proof_rounds,
        )
    )

    if getattr(result, "evidence", None) is not None:
        plan.extend(
            evidence_checks(group, authority.public_key, result, result.evidence, mixed_registrations)
        )

    plan.add(
        "predicate", "tally.counted-within-roll", _int_le, result.num_counted, len(registrations)
    )
    plan.add(
        "predicate", "tally.counts-sum", _values_equal, sum(result.counts.values()), result.num_counted
    )
    plan.add(
        "predicate",
        "tally.outputs-partitioned",
        _values_equal,
        result.num_counted + result.num_discarded,
        len(result.ballot_cascade.outputs),
    )
    return plan


def _resolve_verifier(
    verifier: Union[Verifier, str, None], executor: Optional[Executor] = None
) -> Verifier:
    if isinstance(verifier, Verifier):
        return verifier
    return verifier_from_spec(verifier, executor=executor)


def audit_tally(
    group: Group,
    authority: DistributedKeyGeneration,
    board,
    result,
    election_id: str = "default",
    rotations=None,
    verifier: Union[Verifier, str, None] = None,
    executor: Optional[Executor] = None,
    num_mixers: Optional[int] = None,
    proof_rounds: Optional[int] = None,
) -> AuditReport:
    """Re-check a published tally against the ledger; returns the full report.

    ``verifier`` is a strategy spec (``"eager"``, ``"batched[:chunk]"``) or
    a ready :class:`Verifier`; both strategies check the whole plan and
    produce bit-identical report outcomes, on valid and tampered results.
    ``num_mixers`` / ``proof_rounds`` are the election's public soundness
    parameters as the auditor knows them (see :func:`cascade_checks`).
    """
    plan = tally_audit_plan(
        group, authority, board, result,
        election_id=election_id, rotations=rotations, executor=executor,
        num_mixers=num_mixers, proof_rounds=proof_rounds,
    )
    return _resolve_verifier(verifier, executor).run(plan)


def audit_election(
    board,
    config=None,
    authority: Optional[DistributedKeyGeneration] = None,
    result=None,
    rotations=None,
    kiosk_public_keys: Optional[Sequence[GroupElement]] = None,
    verifier: Union[Verifier, str, None] = None,
    executor: Optional[Executor] = None,
) -> AuditReport:
    """The external auditor's front door: audit everything a board supports.

    Always checks the ledger hash chains and every active registration
    record (kiosk authorization included when ``kiosk_public_keys`` is
    given); with ``rotations``, every rotation record; with ``authority``
    and a published ``result``, the complete tally re-verification of
    :func:`tally_audit_plan` — all through the read-only cursor API, in one
    plan, under the strategy from ``verifier`` or ``config.audit_spec``, with
    both cascades pinned to ``config.num_mixers`` / ``config.proof_rounds``.
    """
    view = as_board_view(board)
    plan = AuditPlan()
    plan.extend(chain_checks(board))
    for record in view.current(RegistrationRecord):
        plan.extend(registration_record_checks(record, kiosk_public_keys))
    if rotations is not None:
        for record in rotations.records():
            plan.extend(rotation_checks(record))
    if result is not None:
        if authority is None:
            raise ValueError("auditing a tally result requires the authority's public key material")
        election_id = getattr(config, "election_id", "default") if config is not None else "default"
        plan.extend(
            tally_audit_plan(
                group=authority.group,
                authority=authority,
                board=view,
                result=result,
                election_id=election_id,
                rotations=rotations,
                executor=executor,
                include_chains=False,
                num_mixers=getattr(config, "num_mixers", None),
                proof_rounds=getattr(config, "proof_rounds", None),
            )
        )
    if verifier is None and config is not None:
        verifier = getattr(config, "audit_spec", None)
    return _resolve_verifier(verifier, executor).run(plan)
