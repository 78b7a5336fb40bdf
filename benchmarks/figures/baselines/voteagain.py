"""VoteAgain as a cryptographic cost kernel.

VoteAgain (Lueks et al., USENIX Security 2020) achieves coercion resistance
through *deniable re-voting*: voters may overwrite coerced ballots, and a
tally server pads and shuffles ballots so an observer cannot tell who
re-voted.  Its cost profile in the paper's evaluation:

* **Registration** — essentially free (≈0.1 ms/voter): the registrar simply
  signs the voter's key; no fake credentials, no per-voter proofs.
* **Voting** — comparable to Swiss Post (≈10 ms): encrypt + proofs.
* **Tally** — the fastest of the compared systems (≈3 h for 10⁶ ballots):
  dummy-ballot padding and a hierarchical deduplication that is
  quasi-linear; we charge a small per-ballot constant.

The price is a stronger trust assumption: a trusted registration authority
that will not impersonate voters and a central service for coercion
resistance — which is why the paper treats its speed as bought with trust.
"""

from __future__ import annotations

from figures.baselines.base import VotingSystemBaseline
from repro.crypto.group import Group


class VoteAgainSystem(VotingSystemBaseline):
    """Coercion resistance via deniable re-voting (trusted registrar)."""

    name = "VoteAgain"
    num_talliers = 4
    quadratic_tally = False

    def __init__(self, group: Group, num_options: int = 2):
        super().__init__(group, num_options)

    def register_one(self) -> None:
        # The registrar signs the voter's public key — one exponentiation.
        self._exp(1)

    def vote_one(self, choice: int) -> None:
        # Encrypt the vote and the voter pseudonym, prove well-formedness.
        self._encrypt(2)
        self._exp(66)

    def tally_prepare(self, num_ballots: int) -> None:
        # Dummy-ballot padding setup by the tally server.
        self._exp(self.num_talliers)

    def tally_per_ballot(self) -> None:
        # Hierarchical dedup + one mixing pass + threshold decryption share;
        # quasi-linear with a small constant (the 3 h @ 10⁶ figure).
        self._exp(2 * self.num_talliers)
