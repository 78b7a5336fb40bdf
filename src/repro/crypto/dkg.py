"""Distributed key generation for the election authority.

Votegral's threat model (Appendix D) assumes the election authority consists
of ``n_A`` members and remains secure as long as not all members are
compromised.  The members jointly generate an ElGamal key pair whose private
key no single member knows:

* each member i draws a secret ``a_i`` and publishes ``A_i = g^{a_i}``;
* the collective public key is ``A_pk = ∏ A_i`` (additive sharing), so the
  collective secret is ``Σ a_i``;
* each member additionally Shamir-shares its secret with the others so a
  threshold subset can recover a missing member's contribution (simple
  joint-Feldman style robustness — enough for the simulation; byzantine
  complaint rounds are out of scope, as they are in the paper's prototype).

Decryption never reconstructs the secret: each member contributes a
decryption share ``c1^{a_i}`` with a Chaum–Pedersen correctness proof
(:meth:`repro.crypto.elgamal.ElGamal.decryption_shares`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.crypto.elgamal import DecryptionShare, ElGamal, ElGamalCiphertext
from repro.crypto.group import Group, GroupElement
from repro.crypto.shamir import Share, split_secret
from repro.errors import VerificationError


@dataclass
class AuthorityShare:
    """One authority member's key material."""

    index: int
    secret: int
    public: GroupElement
    backup_shares: List[Share] = field(default_factory=list)


@dataclass
class DistributedKeyGeneration:
    """The result of a DKG run: member shares plus the collective public key."""

    group: Group
    members: List[AuthorityShare]
    public_key: GroupElement

    @property
    def num_members(self) -> int:
        return len(self.members)

    @property
    def member_public_keys(self) -> List[GroupElement]:
        return [member.public for member in self.members]

    def collective_secret(self) -> int:
        """Reconstruct the collective secret (testing/auditing only)."""
        return sum(member.secret for member in self.members) % self.group.order

    @classmethod
    def run(cls, group: Group, num_members: int, threshold: Optional[int] = None) -> "DistributedKeyGeneration":
        """Run the DKG among ``num_members`` simulated authority members."""
        if num_members < 1:
            raise ValueError("at least one authority member is required")
        threshold = threshold if threshold is not None else num_members
        members: List[AuthorityShare] = []
        public_key = group.identity
        for index in range(1, num_members + 1):
            secret = group.random_scalar()
            public = group.power(secret)
            backups = split_secret(secret, threshold, num_members, group.order)
            members.append(AuthorityShare(index=index, secret=secret, public=public, backup_shares=backups))
            public_key = public_key * public
        return cls(group=group, members=members, public_key=public_key)

    # Threshold decryption ----------------------------------------------------

    def decrypt(
        self,
        ciphertext: ElGamalCiphertext,
        participating: Optional[Sequence[int]] = None,
        verify: bool = True,
    ) -> GroupElement:
        """Jointly decrypt ``ciphertext`` using all (or the listed) members."""
        indices = list(participating) if participating is not None else [m.index for m in self.members]
        by_index: Dict[int, AuthorityShare] = {m.index: m for m in self.members}
        missing = [i for i in indices if i not in by_index]
        if missing:
            raise ValueError(f"unknown authority member indices: {missing}")
        if set(indices) != set(by_index):
            raise VerificationError(
                "additive DKG requires all members for decryption; "
                "use member backup shares to recover absentees"
            )
        members = [by_index[i] for i in indices]
        shares = self.decryption_shares(ciphertext, members)
        publics = [member.public for member in members]
        return ElGamal(self.group).combine_decryption_shares(ciphertext, publics, shares, verify=verify)

    def decryption_shares(
        self, ciphertext: ElGamalCiphertext, members: Optional[Sequence[AuthorityShare]] = None
    ) -> List[DecryptionShare]:
        """Every (listed) member's proven decryption share, in member order.

        One :meth:`ElGamal.decryption_shares <repro.crypto.elgamal.ElGamal.
        decryption_shares>` call: the members are simulated in one process,
        so their ``2M`` powers of ``c1`` share one squaring ladder.
        """
        members = self.members if members is None else members
        return ElGamal(self.group).decryption_shares(
            [member.secret for member in members],
            ciphertext,
            [member.public for member in members],
        )

    def decrypt_int(self, ciphertext: ElGamalCiphertext, max_value: int = 10_000) -> int:
        """Decrypt an exponentially-encoded integer."""
        return self.group.decode_int(self.decrypt(ciphertext), max_value)
