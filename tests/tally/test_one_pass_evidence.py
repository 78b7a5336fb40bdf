"""Prove while you compute: evidence is a by-product of the tally, not a second pass.

With ``collect_evidence`` on, every blinded tag and every counted vote is
derived *once*, with its proofs, by the worker function the tag / decrypt
fan-out already ships to the executor; the join and the vote list are read
off that result and ``build_tally_evidence`` only assembles.  Two things pin
that down:

* the **exponentiation budget** — with M authority members, R registrations,
  B deduplicated ballots and C counted votes, the tag and decrypt primitives
  raise ciphertext parts to exactly ``6M(R+B) + 2MC`` exponents with evidence
  and ``4M(R+B) + 2MC`` without, on both schedules (a second pass costs
  ``10M(R+B) + 4MC``).  Where the shared-base planner declines (the toy
  group) every one of them is a plain exponentiation; where it takes the
  ladder (Ed25519) none is: with evidence they ride ``(2M+1)(R+B) + C``
  ladders and every generator power comes off the warmed table;
* **the bytes** — with the draws seeded, the material tuples are the
  formulae a member-by-member loop of plain ``**`` computes, nonce for nonce,
  and the ladders leave nothing behind in the fixed-base table cache;
* **the published evidence is the one-pass result** — for every executor and
  schedule the evidence lines up entry by entry with the filter transcript
  and the vote list, equals the serial reference, and audits ``ok`` with one
  fingerprint under every strategy.
"""

from __future__ import annotations

import functools
import random
import threading
from collections import Counter

import pytest

from repro.audit.checks import audit_tally
from repro.audit.evidence import decryption_material, tag_chain_material
from repro.crypto.chaum_pedersen import ChaumPedersenCommit, ChaumPedersenStatement, fiat_shamir_challenge
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.ed25519 import Ed25519Element, ed25519_group
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group
from repro.crypto.modp_group import ModPElement, modp_group_256, modp_group_2048, testing_group
from repro.crypto.tagging import CIPHERTEXT_TAG_CONTEXT, TaggingAuthority
from repro.election import ElectionConfig, VotegralElection
from repro.runtime import precompute
from repro.runtime.executor import SerialExecutor
from repro.runtime.pipeline import pipeline_from_spec
from repro.runtime.precompute import FixedBaseTable
from repro.tally import mixnet
from repro.tally.pipeline import TallyPipeline

NUM_OPTIONS = 3
NUM_MIXERS = 2
PROOF_ROUNDS = 2
SCHEDULES = ["serial", "stream:4"]
AUDIT_SPECS = ("eager", "batched", "stream:4:2", "dist:8")


def _voted(group_factory, num_voters, members):
    """A voted election on ``group_factory``'s group; every voter also casts a fake-credential ballot."""
    config = ElectionConfig(
        num_voters=num_voters, num_options=NUM_OPTIONS, num_mixers=NUM_MIXERS, proof_rounds=PROOF_ROUNDS,
        num_authority_members=members, fake_credentials_per_voter=1, group_factory=group_factory,
    )
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    election.run_voting(fake_vote_probability=1.0, rng=random.Random(7))
    return election


@pytest.fixture(scope="module")
def voted_election():
    """A small voted election on the toy group."""
    return _voted(testing_group, num_voters=5, members=3)


@pytest.fixture(scope="module")
def ed25519_election():
    """Two voters, M = 2, on the paper's curve: the planner takes the ladder from two scalars up."""
    return _voted(ed25519_group, num_voters=2, members=2)


@pytest.fixture(scope="module")
def backends(cluster_executor):
    return {"serial": SerialExecutor(), "cluster": cluster_executor}


def _run_tally(election, executor, tagging, schedule, collect_evidence):
    return TallyPipeline(
        group=election.group, authority=election.setup.authority,
        num_mixers=NUM_MIXERS, proof_rounds=PROOF_ROUNDS,
        executor=executor, tagging=tagging, pipeline=pipeline_from_spec(schedule),
        collect_evidence=collect_evidence,
    ).run(election.setup.board, NUM_OPTIONS, election.config.election_id)


# ------------------------------------------------------------------ budget


@pytest.fixture
def exponentiations(monkeypatch):
    """Exponentiations made inside the tag / decrypt primitives, split by base and by route.

    The primitives are every ``TaggingAuthority.blind*`` method and the one
    threshold-share routine, ``ElGamal.decryption_shares``; mixing and
    signature checking stay outside the count.  A base is *fixed* when it is
    the group generator (``group.power`` and the proof commits ``g**nonce``;
    the toy group builds no tables, so both reach ``exponentiate``, a warmed
    group answers from its ``table``) and *variable* otherwise.  ``ladders``
    are ``Group.shared_base_powers`` calls and ``scalars`` what they carry —
    whether the planner then shares a ladder or declines shows in ``variable``.
    """
    inside = threading.local()
    counts: Counter = Counter()

    def primitive(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inside.depth = getattr(inside, "depth", 0) + 1
            try:
                return fn(*args, **kwargs)
            finally:
                inside.depth -= 1
        return wrapper

    for name, member in list(vars(TaggingAuthority).items()):
        if name.startswith("blind") and callable(member):
            monkeypatch.setattr(TaggingAuthority, name, primitive(member))
    monkeypatch.setattr(ElGamal, "decryption_shares", primitive(ElGamal.decryption_shares))

    def counted_exponentiate(exponentiate):
        def wrapper(self, scalar):
            if getattr(inside, "depth", 0):
                counts["fixed" if self == self.group.generator else "variable"] += 1
            return exponentiate(self, scalar)
        return wrapper

    table_power, shared_base_powers = FixedBaseTable.power, Group.shared_base_powers

    def counted_table_power(self, scalar):
        if getattr(inside, "depth", 0):
            counts["fixed"] += 1
            counts["table"] += 1
        return table_power(self, scalar)

    def counted_shared_base_powers(self, base, scalars):
        if getattr(inside, "depth", 0):
            counts["ladders"] += 1
            counts["scalars"] += len(scalars)
        return shared_base_powers(self, base, scalars)

    for element_type in (ModPElement, Ed25519Element):
        monkeypatch.setattr(element_type, "exponentiate", counted_exponentiate(element_type.exponentiate))
    monkeypatch.setattr(FixedBaseTable, "power", counted_table_power)
    monkeypatch.setattr(Group, "shared_base_powers", counted_shared_base_powers)
    return counts


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("collect_evidence", [True, False], ids=["evidence", "proof-less"])
def test_tag_and_decrypt_phases_spend_the_one_pass_budget(
    voted_election, exponentiations, schedule, collect_evidence
):
    authority = voted_election.setup.authority
    tagging = TaggingAuthority.create(voted_election.group, authority.num_members)
    exponentiations.clear()

    result = _run_tally(voted_election, SerialExecutor(), tagging, schedule, collect_evidence)

    members = authority.num_members
    tags = len(result.filter_result.registration_tags) + result.num_valid_ballots
    counted = result.num_counted
    assert 0 < counted < result.num_valid_ballots  # fake-credential ballots were discarded
    # Per member: the blinding pair (2), with evidence its two proof commits
    # (2 on the ciphertext parts, 2 on the generator), then the decryption
    # share and its commit on c1 (2) and the share's g**w (1).  The toy group
    # is below the shared-base planner's crossover, so each is still a plain
    # exponentiation.
    per_tag_variable, per_tag_fixed = (6, 3) if collect_evidence else (4, 1)
    assert exponentiations["variable"] == members * (per_tag_variable * tags + 2 * counted)
    assert exponentiations["fixed"] == members * (per_tag_fixed * tags + counted)
    assert exponentiations["table"] == 0


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("collect_evidence", [True, False], ids=["evidence", "proof-less"])
def test_above_the_crossover_the_budget_rides_ladders_and_tables(
    ed25519_election, exponentiations, schedule, collect_evidence
):
    """Ed25519, M = 2: no ciphertext part is raised twice, no generator power is plain."""
    group, authority = ed25519_election.group, ed25519_election.setup.authority
    tagging = TaggingAuthority.create(group, authority.num_members)
    precompute.warm_fixed_base(group.generator)
    exponentiations.clear()

    result = _run_tally(ed25519_election, SerialExecutor(), tagging, schedule, collect_evidence)

    members = authority.num_members
    tags = len(result.filter_result.registration_tags) + result.num_valid_ballots
    counted = result.num_counted
    assert members == 2 and 0 < counted < result.num_valid_ballots
    if collect_evidence:
        # Per tag: each chain step raises c1 and c2 once for (secret, nonce) —
        # 2M ladders carrying 4M — and the blinded c1 once for every member's
        # (share nonce, share secret): 1 ladder carrying 2M; a counted vote is
        # that last ladder alone.  3M generator powers per tag, M per vote.
        assert exponentiations["variable"] == 0
        assert exponentiations["ladders"] == (2 * members + 1) * tags + counted
        assert exponentiations["scalars"] == 6 * members * tags + 2 * members * counted
        assert exponentiations["table"] == 3 * members * tags + members * counted
    else:
        # The proof-less chain raises each part to one exponent per member —
        # nothing to share — so only the share ladder remains.
        assert exponentiations["variable"] == 2 * members * tags
        assert exponentiations["ladders"] == tags + counted
        assert exponentiations["scalars"] == 2 * members * (tags + counted)
        assert exponentiations["table"] == members * (tags + counted)
    assert exponentiations["fixed"] == exponentiations["table"]  # no plain g**x either


def test_ladder_derived_evidence_audits_ok_under_every_strategy(ed25519_election):
    group, authority = ed25519_election.group, ed25519_election.setup.authority
    tagging = TaggingAuthority.create(group, authority.num_members)
    result = _run_tally(ed25519_election, SerialExecutor(), tagging, "serial", collect_evidence=True)
    reports = [
        audit_tally(
            group, authority, ed25519_election.setup.board, result,
            election_id=ed25519_election.config.election_id, verifier=spec,
            num_mixers=NUM_MIXERS, proof_rounds=PROOF_ROUNDS,
        )
        for spec in AUDIT_SPECS
    ]
    assert all(report.ok for report in reports), [report.first_failure for report in reports]
    assert len({report.fingerprint() for report in reports}) == 1


# ------------------------------------------------------------------ the bytes


def _seeded_randomness(monkeypatch, seed: int) -> None:
    """Fix the draws that shape published output (shuffle plans, re-encryption)."""
    rng = random.Random(seed)
    monkeypatch.setattr(Group, "random_scalar", lambda self: rng.randrange(1, self.order))
    monkeypatch.setattr(mixnet, "random_permutation", lambda n: rng.sample(range(n), n))


def _reference_share_fields(dkg, ciphertext):
    """Member by member with plain ``**``: draw w, then g**w, c1**w, c1**secret."""
    group, fields, factor = dkg.group, [], dkg.group.identity
    for member in dkg.members:
        w = group.random_scalar()
        commitment_g, commitment_c1 = group.generator ** w, ciphertext.c1 ** w
        share = ciphertext.c1 ** member.secret
        challenge = group.hash_to_scalar(
            b"elgamal-decryption-share", member.public.to_bytes(), share.to_bytes(),
            commitment_g.to_bytes(), commitment_c1.to_bytes(), ciphertext.to_bytes(),
        )
        fields += (share, commitment_g, commitment_c1, (w + challenge * member.secret) % group.order)
        factor = factor * share
    return (*fields, ciphertext.c2 * factor.inverse())


def _reference_tag_chain_fields(dkg, tagging, ciphertext):
    """The chain as published before ladders: blind, then prove c1's step, then c2's."""
    group, fields, current = dkg.group, [], ciphertext
    for secret, commitment in zip(tagging.secrets, tagging.commitments):
        after = (current.c1 ** secret, current.c2 ** secret)
        fields += after
        for before_part, after_part in zip((current.c1, current.c2), after):
            nonce = group.random_scalar()
            statement = ChaumPedersenStatement(before_part, group.generator, after_part, commitment)
            commit = ChaumPedersenCommit(before_part ** nonce, group.generator ** nonce)
            challenge = fiat_shamir_challenge(statement, commit, CIPHERTEXT_TAG_CONTEXT)
            fields += (commit.commit_g, commit.commit_h, challenge, (nonce - challenge * secret) % group.order)
        current = type(ciphertext)(*after)
    return (*fields, *_reference_share_fields(dkg, current))


@pytest.mark.parametrize(
    "group_factory, members",
    [(testing_group, 3), (modp_group_256, 3), (ed25519_group, 2), (modp_group_2048, 1)],
    ids=["toy", "modp256", "ed25519", "modp2048"],
)
def test_seeded_material_is_the_member_by_member_formulae(monkeypatch, group_factory, members):
    """Same draws in, same bytes out: the ladder changes how a power is computed, never which."""
    group = group_factory()
    dkg = DistributedKeyGeneration.run(group, members)
    tagging = TaggingAuthority.create(group, members)
    ciphertext = ElGamal(group).encrypt(dkg.public_key, group.power(12345))

    for material, reference in (
        (lambda: tag_chain_material(dkg, tagging, ciphertext), lambda: _reference_tag_chain_fields(dkg, tagging, ciphertext)),
        (lambda: decryption_material(dkg, ciphertext), lambda: _reference_share_fields(dkg, ciphertext)),
    ):
        _seeded_randomness(monkeypatch, 41)
        got = material()
        _seeded_randomness(monkeypatch, 41)
        expected = reference()
        assert got == expected
    assert got[-1] == group.power(12345)  # and the decryption still decrypts
    _seeded_randomness(monkeypatch, 41)
    assert tag_chain_material(dkg, tagging, ciphertext)[-1] == tagging.blind_and_decrypt(dkg, ciphertext)


@pytest.mark.parametrize("group_factory", [modp_group_256, ed25519_group], ids=["modp256", "ed25519"])
def test_a_tally_leaves_the_table_cache_as_it_found_it(group_factory):
    """Ladders are transient and provers never warm a base: the tables in are the tables out."""
    precompute.clear_tables()
    election = _voted(group_factory, num_voters=2, members=2)
    group, authority = election.group, election.setup.authority
    # The generator and the election key, warmed at setup, and any signer key
    # that registration's verifiers raised often enough to earn a table.
    assert precompute.has_table(group.generator) and precompute.has_table(authority.public_key)
    tables = set(precompute._tables)

    tagging = TaggingAuthority.create(group, authority.num_members)
    result = _run_tally(election, SerialExecutor(), tagging, "serial", collect_evidence=True)

    assert set(precompute._tables) == tables
    parts = set()
    for chain in (*result.evidence.registration_tags, *result.evidence.ballot_tags):
        for ciphertext in (chain.source, chain.blinded, *(step.after for step in chain.steps)):
            parts.update((ciphertext.c1, ciphertext.c2))
    parts.update(transcript.ciphertext.c1 for transcript in result.evidence.decryptions)
    assert parts and not any(precompute._base_key(part) in precompute._usage for part in parts)


# ------------------------------------------------------------------ evidence


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("backend", ["serial", "cluster"])
def test_one_pass_evidence_is_the_published_evidence(monkeypatch, voted_election, backends, backend, schedule):
    group, authority = voted_election.group, voted_election.setup.authority
    board, election_id = voted_election.setup.board, voted_election.config.election_id
    tagging = TaggingAuthority.create(group, authority.num_members)

    _seeded_randomness(monkeypatch, 23)
    reference = _run_tally(voted_election, SerialExecutor(), tagging, "serial", collect_evidence=False)
    _seeded_randomness(monkeypatch, 23)
    result = _run_tally(voted_election, backends[backend], tagging, schedule, collect_evidence=True)

    # What the join and the count used is what the serial proof-less tally publishes …
    assert result.filter_result == reference.filter_result
    assert result.votes == reference.votes and result.counts == reference.counts
    assert result.registration_cascade == reference.registration_cascade
    assert result.ballot_cascade == reference.ballot_cascade

    # … and the evidence is that same derivation, entry by entry.
    evidence, filtered = result.evidence, result.filter_result
    assert evidence.tagging_commitments == tuple(tagging.commitments)
    assert [chain.tag.to_bytes() for chain in evidence.registration_tags] == filtered.registration_tags
    assert [chain.tag.to_bytes() for chain in evidence.ballot_tags] == filtered.ballot_tags
    assert [chain.source for chain in evidence.ballot_tags] == [pair[1] for pair in result.ballot_cascade.outputs]
    assert [transcript.ciphertext for transcript in evidence.decryptions] == filtered.counted
    assert [
        group.decode_int(transcript.plaintext(), max_value=NUM_OPTIONS - 1) for transcript in evidence.decryptions
    ] == [vote.choice for vote in result.votes]

    reports = [
        audit_tally(
            group, authority, board, result, election_id=election_id, verifier=spec,
            executor=backends[backend], num_mixers=NUM_MIXERS, proof_rounds=PROOF_ROUNDS,
        )
        for spec in AUDIT_SPECS
    ]
    assert all(report.ok for report in reports), [report.first_failure for report in reports]
    assert len({report.fingerprint() for report in reports}) == 1
