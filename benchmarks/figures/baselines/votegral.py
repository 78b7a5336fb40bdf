"""TRIP-Core / Votegral as a cryptographic cost kernel.

"TRIP-Core" is the paper's name for the registration protocol with all
QR/peripheral I/O stripped out, leaving only the cryptographic path (§7.3) —
which is what makes it comparable with the other systems' registration.
The per-phase kernels below mirror the real implementation in
:mod:`repro.registration` and :mod:`repro.tally`:

* **Registration** — credential key generation, the ElGamal encryption that
  forms the public credential tag, the interactive Chaum–Pedersen commit and
  response, and three kiosk signatures (≈1.2 ms/voter on the paper's
  hardware; an order of magnitude faster than Swiss Post because there are
  no per-control-component derivations).
* **Voting** — ballot encryption, the OR well-formedness proof, the key
  proof and the credential signature (≈1 ms).
* **Tally** — four verifiable mixes over (vote, credential) pairs plus the
  deterministic-tagging exponentiations and threshold decryption, linear per
  ballot (≈14 h at 10⁶ ballots — half Swiss Post, slower than VoteAgain,
  astronomically faster than Civitas).
"""

from __future__ import annotations

from figures.baselines.base import VotingSystemBaseline
from repro.crypto.group import Group


class TripCoreSystem(VotingSystemBaseline):
    """Votegral with TRIP-Core registration (crypto path only)."""

    name = "TRIP-Core"
    num_talliers = 4
    quadratic_tally = False

    def __init__(self, group: Group, num_options: int = 2):
        super().__init__(group, num_options)

    def register_one(self) -> None:
        # Credential keygen (1), ElGamal encryption of c_pk (2), Chaum–Pedersen
        # commit (2) + response (0 exps, scalar arithmetic), three Schnorr
        # signatures (3): the kiosk's per-credential work.  Issuing one fake
        # credential adds a simulated transcript (4) and two signatures (2).
        self._exp(1 + 2 + 2 + 3)
        self._exp(4 + 2)

    def vote_one(self, choice: int) -> None:
        # Exponential-ElGamal encryption (2), OR proof over the options
        # (≈2 per option), key proof (1) and credential signature (1).
        self._encrypt(1)
        self._exp(2 * self.num_options + 2)

    def tally_prepare(self, num_ballots: int) -> None:
        # Tagging-key commitments and mix setup.
        self._exp(2 * self.num_talliers)

    def tally_per_ballot(self) -> None:
        # Per mixer: re-encrypt the (vote, credential) pair (4 exps) and its
        # shuffle-argument share (≈2); plus the deterministic tagging
        # exponentiations and the threshold decryption shares.
        self._exp(6 * self.num_talliers)
        self._exp(2 * self.num_talliers)
