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


def _decrypt_one(
    dkg: DistributedKeyGeneration,
    ciphertext: ElGamalCiphertext,
    num_options: int,
) -> DecryptedVote:
    """Decrypt one ballot — module-level so process executors can run it."""
    return _decode_choice(dkg, dkg.decrypt(ciphertext, verify=False), num_options)


def decrypt_batch(
    dkg: DistributedKeyGeneration,
    ciphertexts: Sequence[ElGamalCiphertext],
    num_options: int,
    executor: Optional[Executor] = None,
    proofs: Optional[List[tuple]] = None,
) -> List[DecryptedVote]:
    """Decrypt and decode ``ciphertexts`` over the executor, in order.

    Given a ``proofs`` list, each vote is decrypted once, keeping its share
    proofs (:func:`~repro.audit.evidence.decryption_material`): the vote is
    decoded from that result and the material is appended to ``proofs``.
    """
    if proofs is None:
        jobs = [(dkg, ciphertext, num_options) for ciphertext in ciphertexts]
        return parallel_starmap(_decrypt_one, jobs, executor=executor)
    jobs = [(dkg, ciphertext) for ciphertext in ciphertexts]
    material = parallel_starmap(decryption_material, jobs, executor=executor)
    proofs.extend(material)
    return [_decode_choice(dkg, fields[-1], num_options) for fields in material]


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
    """
    with telemetry.span("tally.decrypt", items=len(ciphertexts)):
        return decrypt_batch(dkg, ciphertexts, num_options, executor, proofs)


def aggregate(votes: Sequence[DecryptedVote], num_options: int) -> Dict[int, int]:
    """Per-candidate totals."""
    counts = {option: 0 for option in range(num_options)}
    for vote in votes:
        counts[vote.choice] += 1
    return counts
