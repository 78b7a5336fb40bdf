"""Civitas (JCJ) as a cryptographic cost kernel.

Civitas (Clarkson, Chong, Myers, S&P 2008) is the canonical fake-credential
coercion-resistant system.  Two properties dominate its cost in the paper's
evaluation:

* it uses **large-modulus** discrete-log primitives — the gap §7.3
  attributes to group choice.  Its kernel runs over :func:`civitas_group`,
  the quadratic residues of the RFC 3526 group-14 safe prime, so every
  power has a 2047-bit exponent on a 2048-bit modulus (≈ 32 ms).  The
  library's ``modp_group_2048`` preset is a Schnorr group of 256-bit order,
  whose powers cost a fraction of that, so it does not stand in for
  Civitas here.
* its tally runs **pairwise plaintext-equivalence tests** for duplicate
  elimination and for matching ballots against the credential roster, which
  is quadratic in the number of ballots — the reason the paper extrapolates
  its tally to ≈1,768 years at one million ballots.

The kernels below mirror the protocol's structure: multi-teller credential
issuance with designated-verifier proofs at registration, encrypted
credential + vote with proofs at ballot casting, and per-pair PETs plus mixing
at tally time.
"""

from __future__ import annotations

from functools import lru_cache

from figures.baselines.base import VotingSystemBaseline
from repro.crypto.group import Group
from repro.crypto.modp_group import ModPGroup

#: The RFC 3526 MODP group 14 prime: ``p`` and ``(p − 1)/2`` are both prime.
RFC3526_GROUP14_P = int(
    "FFFFFFFFFFFFFFFFC90FDAA22168C234C4C6628B80DC1CD129024E088A67CC74"
    "020BBEA63B139B22514A08798E3404DDEF9519B3CD3A431B302B0A6DF25F1437"
    "4FE1356D6D51C245E485B576625E7EC6F44C42E9A637ED6B0BFF5CB6F406B7ED"
    "EE386BFB5A899FA5AE9F24117C4B1FE649286651ECE45B3DC2007CB8A163BF05"
    "98DA48361C55D39A69163FA8FD24CF5F83655D23DCA3AD961C62F356208552BB"
    "9ED529077096966D670C354E4ABC9804F1746C08CA18217C32905E462E36CE3B"
    "E39E772C180E86039B2783A2EC07A28FB5C55DF06F4C52C9DE2BCBF695581718"
    "3995497CEA956AE515D2261898FA051015728E5A8AACAA68FFFFFFFFFFFFFFFF",
    16,
)


@lru_cache(maxsize=None)
def civitas_group() -> ModPGroup:
    """The order-``(p − 1)/2`` subgroup of Z_p* for the group-14 prime, generated by 4 = 2².

    Named ``modp-2048`` after its modulus; it is not the registry's
    ``modp-2048`` preset, and nothing resolves it by name.
    """
    return ModPGroup("modp-2048", RFC3526_GROUP14_P, (RFC3526_GROUP14_P - 1) // 2, 4)


class CivitasSystem(VotingSystemBaseline):
    """JCJ/Civitas: fake credentials, multiple registration tellers, quadratic tally."""

    name = "Civitas"
    num_talliers = 4
    num_registration_tellers = 4
    quadratic_tally = True

    def __init__(self, group: Group | None = None, num_options: int = 2):
        # Civitas defaults to its large-modulus group regardless of what the
        # other systems use; callers may override for unit tests.
        super().__init__(group if group is not None else civitas_group(), num_options)

    def register_one(self) -> None:
        # Each registration teller generates a credential share, encrypts it,
        # and produces a designated-verifier reencryption proof for the voter.
        per_teller = 2 + 2 + 4
        self._exp(per_teller * self.num_registration_tellers)

    def vote_one(self, choice: int) -> None:
        # Encrypt credential and choice, prove knowledge of both and ballot
        # well-formedness (1-out-of-L reencryption proof).
        self._encrypt(2)
        self._exp(6 + 2 * self.num_options)

    def tally_prepare(self, num_ballots: int) -> None:
        # Tabulation tellers' mix setup.
        self._exp(2 * self.num_talliers)

    def tally_per_ballot(self) -> None:
        # Mixing each ballot through the teller cascade with proofs.
        self._exp(4 * self.num_talliers)

    def tally_per_pair(self) -> None:
        # One PET between a ballot pair (duplicate elimination) or between a
        # ballot and a roster entry (credential check): each teller raises the
        # quotient to a secret exponent with a proof, then joint decryption.
        self._exp(2 * self.num_talliers)
