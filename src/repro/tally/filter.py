"""Ballot filtering: duplicate removal and blinded-tag matching.

Votegral's filtering is linear in the number of ballots (§7.4): rather than
pairwise plaintext-equivalence tests (Civitas), both the mixed ballots and the
mixed registration tags are reduced to *deterministic blinded tags*
(:mod:`repro.crypto.tagging`) and joined on the tag value.  A ballot survives
iff its blinded credential tag equals the blinded tag of some active
registration record — which by construction happens exactly for ballots cast
with real credentials.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.audit.evidence import tag_chain_material
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.tagging import TaggingAuthority
from repro.ledger.records import BallotRecord
from repro.runtime.executor import Executor, resolve_executor


@dataclass(frozen=True)
class FilterResult:
    """The outcome of tag-based filtering on mixed ballot pairs."""

    counted: List[ElGamalCiphertext]       # vote ciphertexts that will be decrypted
    discarded: int                          # ballots whose tag matched no registration
    duplicate_tags: int                     # extra ballots beyond one per registration tag
    registration_tags: List[bytes]          # blinded registration tags (for audit)
    ballot_tags: List[bytes]                # blinded ballot tags (for audit)


def deduplicate_ballots(records: Sequence[BallotRecord]) -> List[BallotRecord]:
    """Keep only the most recent ballot per credential public key.

    Ledger order is submission order, so "last write wins" — a voter who
    revises their vote with the same credential replaces the earlier ballot.
    """
    latest: Dict[bytes, BallotRecord] = {}
    for record in records:
        latest[record.credential_public_key.to_bytes()] = record
    return list(latest.values())


def _blinded_tag_bytes(
    tagging: TaggingAuthority,
    dkg: DistributedKeyGeneration,
    ciphertext: ElGamalCiphertext,
) -> bytes:
    """One tag derivation — module-level so cluster workers can run it."""
    return tagging.blind_and_decrypt(dkg, ciphertext).to_bytes()


def blinded_tags(
    dkg: DistributedKeyGeneration,
    tagging: TaggingAuthority,
    ciphertexts: Sequence[ElGamalCiphertext],
    executor: Optional[Executor] = None,
    proofs: Optional[List[tuple]] = None,
) -> List[bytes]:
    """The blinded tag of every ciphertext, fanned out over the executor.

    Given a ``proofs`` list, each tag is derived once, *with* its proofs
    (:func:`~repro.audit.evidence.tag_chain_material`): the tag is read off
    that result and the material is appended to ``proofs``.  Same bytes either way.
    """
    if proofs is None:
        jobs = [(tagging, dkg, ciphertext) for ciphertext in ciphertexts]
        return resolve_executor(executor).starmap(_blinded_tag_bytes, jobs)
    jobs = [(dkg, tagging, ciphertext) for ciphertext in ciphertexts]
    material = resolve_executor(executor).starmap(tag_chain_material, jobs)
    proofs.extend(material)
    return [chain[-1].to_bytes() for chain in material]


class TagJoiner:
    """The stateful linear hash join of ballot tags against registration tags.

    First match wins (at most one counted ballot per registration tag);
    further ballots with a known registration tag count as duplicates, the
    rest are discarded.  The tally's :func:`filter_ballots` and the audit's
    evidence-join check feed this one implementation, so what is published
    and what is re-checked cannot drift apart semantically.
    """

    def __init__(self, registration_tags: Sequence[bytes]):
        self.registration_tags = list(registration_tags)
        self._registered = set(self.registration_tags)
        self._remaining = set(self.registration_tags)
        self.counted: List[ElGamalCiphertext] = []
        self.ballot_tags: List[bytes] = []
        self.discarded = 0
        self.duplicate_tags = 0

    def feed(
        self, tagged_votes: Sequence[Tuple[ElGamalCiphertext, bytes]]
    ) -> List[ElGamalCiphertext]:
        """Join a batch of (vote ciphertext, blinded tag); return the newly counted votes."""
        with telemetry.span("tally.join", items=len(tagged_votes)):
            newly_counted: List[ElGamalCiphertext] = []
            for vote_ciphertext, tag_bytes in tagged_votes:
                self.ballot_tags.append(tag_bytes)
                if tag_bytes in self._remaining:
                    newly_counted.append(vote_ciphertext)
                    self._remaining.discard(tag_bytes)
                elif tag_bytes in self._registered:
                    self.duplicate_tags += 1
                else:
                    self.discarded += 1
            self.counted.extend(newly_counted)
            return newly_counted

    def result(self) -> FilterResult:
        return FilterResult(
            counted=self.counted,
            discarded=self.discarded,
            duplicate_tags=self.duplicate_tags,
            registration_tags=self.registration_tags,
            ballot_tags=self.ballot_tags,
        )


def filter_ballots(
    dkg: DistributedKeyGeneration,
    tagging: TaggingAuthority,
    mixed_pairs: Sequence[Tuple[ElGamalCiphertext, ElGamalCiphertext]],
    mixed_registration_tags: Sequence[ElGamalCiphertext],
    executor: Optional[Executor] = None,
    proofs: Optional[List[tuple]] = None,
) -> FilterResult:
    """Match mixed ballots against mixed registration tags.

    ``mixed_pairs`` holds (encrypted vote, encrypted credential key) after the
    mix cascade; ``mixed_registration_tags`` holds the mixed ``c_pc``
    ciphertexts from the registration ledger.  Both sides are raised to the
    tagging exponent and threshold-decrypted to blinded tags; the join keeps
    at most one ballot per registration tag.

    Tag derivation is independent per ciphertext, so both sides fan out over
    the executor in one batch (registrations first; ``proofs`` as in
    :func:`blinded_tags`); the join itself stays serial (it is a linear hash
    join, §7.4).
    """
    ciphertexts = [*mixed_registration_tags, *(credential for _, credential in mixed_pairs)]
    with telemetry.span("tally.tag", items=len(ciphertexts)):
        all_tags = blinded_tags(dkg, tagging, ciphertexts, executor, proofs)
    registration_tags = all_tags[: len(mixed_registration_tags)]
    pair_tags = all_tags[len(mixed_registration_tags) :]

    joiner = TagJoiner(registration_tags)
    joiner.feed([(vote, tag) for (vote, _), tag in zip(mixed_pairs, pair_tags)])
    return joiner.result()
