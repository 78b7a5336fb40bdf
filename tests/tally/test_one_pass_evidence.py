"""Prove while you compute: evidence is a by-product of the tally, not a second pass.

With ``collect_evidence`` on, every blinded tag and every counted vote is
derived *once*, with its proofs, by the worker function the tag / decrypt
fan-out already ships to the executor; the join and the vote list are read
off that result and ``build_tally_evidence`` only assembles.  Two things pin
that down:

* the **exponentiation budget** — with M authority members, R registrations,
  B deduplicated ballots and C counted votes, the tag and decrypt primitives
  spend exactly ``6M(R+B) + 2MC`` variable-base exponentiations with evidence
  and ``4M(R+B) + 2MC`` without, on both schedules (a second pass costs
  ``10M(R+B) + 4MC``);
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
from repro.crypto.dkg import AuthorityShare
from repro.crypto.group import Group
from repro.crypto.modp_group import ModPElement
from repro.crypto.tagging import TaggingAuthority
from repro.election import ElectionConfig, VotegralElection
from repro.runtime.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
from repro.runtime.pipeline import pipeline_from_spec
from repro.runtime.precompute import FixedBaseTable
from repro.tally import mixnet
from repro.tally.pipeline import TallyPipeline

NUM_OPTIONS = 3
NUM_MIXERS = 2
PROOF_ROUNDS = 2
SCHEDULES = ["serial", "stream:4"]
AUDIT_SPECS = ("eager", "batched", "stream:4:2", "dist:8")


@pytest.fixture(scope="module")
def voted_election():
    """A small voted election on the toy group; every voter also casts a fake-credential ballot."""
    config = ElectionConfig(
        num_voters=5, num_options=NUM_OPTIONS, num_mixers=NUM_MIXERS, proof_rounds=PROOF_ROUNDS,
        num_authority_members=3, fake_credentials_per_voter=1,
    )
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    election.run_voting(fake_vote_probability=1.0, rng=random.Random(7))
    return election


@pytest.fixture(scope="module")
def backends():
    executors = {
        "serial": SerialExecutor(),
        "thread": ThreadExecutor(num_workers=2),
        "process": ProcessExecutor(num_workers=2),
    }
    yield executors
    for executor in executors.values():
        executor.close()


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
    """Exponentiations made inside the tag / decrypt primitives, split by base.

    The primitives are every ``TaggingAuthority.blind*`` method and
    ``AuthorityShare.decryption_share``; mixing and signature checking stay
    outside the count.  A base is *fixed* when it is the group generator
    (``group.power`` and the proof commits ``g**nonce``; the toy group builds
    no tables, so both reach ``exponentiate``) and *variable* otherwise.
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
    monkeypatch.setattr(AuthorityShare, "decryption_share", primitive(AuthorityShare.decryption_share))

    exponentiate, table_power = ModPElement.exponentiate, FixedBaseTable.power

    def counted_exponentiate(self, scalar):
        if getattr(inside, "depth", 0):
            counts["fixed" if self == self.group.generator else "variable"] += 1
        return exponentiate(self, scalar)

    def counted_table_power(self, scalar):
        if getattr(inside, "depth", 0):
            counts["fixed"] += 1
        return table_power(self, scalar)

    monkeypatch.setattr(ModPElement, "exponentiate", counted_exponentiate)
    monkeypatch.setattr(FixedBaseTable, "power", counted_table_power)
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
    # share and its commit on c1 (2) and the share's g**w (1).
    per_tag_variable, per_tag_fixed = (6, 3) if collect_evidence else (4, 1)
    assert exponentiations["variable"] == members * (per_tag_variable * tags + 2 * counted)
    assert exponentiations["fixed"] == members * (per_tag_fixed * tags + counted)


# ------------------------------------------------------------------ evidence


def _seeded_randomness(monkeypatch, seed: int) -> None:
    """Fix the draws that shape published output (shuffle plans, re-encryption)."""
    rng = random.Random(seed)
    monkeypatch.setattr(Group, "random_scalar", lambda self: rng.randrange(1, self.order))
    monkeypatch.setattr(mixnet, "random_permutation", lambda n: rng.sample(range(n), n))


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("backend", ["serial", "thread", "process"])
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
