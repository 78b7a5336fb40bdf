"""The Swiss Post e-voting system as a cryptographic cost kernel.

Swiss Post's system (the federally approved protocol the paper benchmarks
against) is end-to-end verifiable but not coercion resistant.  Its structure,
for our cost purposes:

* **Registration / setup per voter** — the print office and the four control
  components derive the voter's verification-card material: per-choice return
  codes and the ballot-casting key, each requiring exponentiations by every
  control component (we charge 3 exponentiations per control component plus a
  constant, matching its measured ≈13 ms/voter position between VoteAgain and
  Civitas in Fig. 5a).
* **Voting per ballot** — the client encrypts the vote, computes partial
  choice return codes (one exponentiation per option per control component on
  the server side) and the accompanying zero-knowledge proofs (≈10 ms).
* **Tally per ballot** — each of the four control components re-encrypts the
  ballot in its mix with a Bayer–Groth proof share and produces a verifiable
  partial decryption; Swiss Post's tally is linear but with a larger constant
  than Votegral (≈27 h vs ≈14 h at 10⁶ ballots in Fig. 5b).
"""

from __future__ import annotations

from figures.baselines.base import VotingSystemBaseline
from repro.crypto.group import Group


class SwissPostSystem(VotingSystemBaseline):
    """Verifiable secret-ballot system of the Swiss Post (no coercion resistance)."""

    name = "SwissPost"
    num_talliers = 4
    quadratic_tally = False

    def __init__(self, group: Group, num_options: int = 2):
        super().__init__(group, num_options)

    def register_one(self) -> None:
        # Verification-card generation: voter key pair, per-control-component
        # contribution to the return-code derivation, and the card signature.
        self._exp(2)
        self._exp(24 * self.num_talliers)

    def vote_one(self, choice: int) -> None:
        # Encrypt the vote, prove well-formedness (exponentiation proof +
        # plaintext-equality proof), and compute partial choice return codes.
        self._encrypt(1)
        self._exp(64)
        self._exp(self.num_options)
        self._exp(self.num_talliers)

    def tally_prepare(self, num_ballots: int) -> None:
        # Mixing key ceremony across the control components.
        self._exp(2 * self.num_talliers)

    def tally_per_ballot(self) -> None:
        # Per control component: re-encryption (2 exps), shuffle-argument share
        # (≈4 exps) and verifiable partial decryption (2 exps).
        self._exp(16 * self.num_talliers)
