"""Civitas (JCJ) as a cryptographic cost kernel.

Civitas (Clarkson, Chong, Myers, S&P 2008) is the canonical fake-credential
coercion-resistant system.  Two properties dominate its cost in the paper's
evaluation:

* it uses **large-modulus** discrete-log primitives (we run its kernel over
  the 2048-bit mod-p group, roughly three orders of magnitude slower per
  exponentiation than the 256-bit groups used by the other systems — the gap
  §7.3 attributes to group choice);
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

from figures.baselines.base import VotingSystemBaseline
from repro.crypto.group import Group
from repro.crypto.modp_group import modp_group_2048


class CivitasSystem(VotingSystemBaseline):
    """JCJ/Civitas: fake credentials, multiple registration tellers, quadratic tally."""

    name = "Civitas"
    num_talliers = 4
    num_registration_tellers = 4
    quadratic_tally = True

    def __init__(self, group: Group | None = None, num_options: int = 2):
        # Civitas defaults to the large-modulus group regardless of what the
        # other systems use; callers may override for unit tests.
        super().__init__(group if group is not None else modp_group_2048(), num_options)

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
