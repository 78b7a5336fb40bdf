"""Threshold decryption of the surviving vote ciphertexts."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro import telemetry
from repro.audit.evidence import decryption_material
from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group import GroupElement
from repro.errors import TallyError
from repro.runtime.executor import Executor
from repro.runtime.sharding import parallel_starmap


@dataclass(frozen=True)
class DecryptedVote:
    """One decrypted ballot: the candidate index it encodes."""

    choice: int


def _decode_choice(dkg: DistributedKeyGeneration, plaintext: GroupElement, num_options: int) -> DecryptedVote:
    try:
        choice = dkg.group.decode_int(plaintext, max_value=num_options - 1)
    except ValueError as exc:
        raise TallyError("a counted ballot does not encode a valid candidate") from exc
    return DecryptedVote(choice=choice)


def decrypt_votes(
    dkg: DistributedKeyGeneration,
    ciphertexts: Sequence[ElGamalCiphertext],
    num_options: int,
    executor: Optional[Executor] = None,
    proofs: Optional[List[tuple]] = None,
) -> List[DecryptedVote]:
    """Jointly decrypt the counted ballots (exponential ElGamal decode).

    Each ballot decrypts independently, so the work shards across the
    executor; ballot order (and thus the published vote list) is preserved.
    Every vote is decrypted once, by the routine that proves each member's
    share as it computes it (:func:`~repro.audit.evidence.decryption_material`);
    the vote is decoded from that result, and a ``proofs`` list, when given,
    is extended with the material.
    """
    with telemetry.span("tally.decrypt", items=len(ciphertexts)):
        jobs = [(dkg, ciphertext) for ciphertext in ciphertexts]
        material = parallel_starmap(decryption_material, jobs, executor=executor)
        if proofs is not None:
            proofs.extend(material)
        return [_decode_choice(dkg, fields[-1], num_options) for fields in material]


def aggregate(votes: Sequence[DecryptedVote], num_options: int) -> Dict[int, int]:
    """Per-candidate totals."""
    counts = {option: 0 for option in range(num_options)}
    for vote in votes:
        counts[vote.choice] += 1
    return counts
