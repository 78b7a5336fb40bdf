"""Election setup (Fig. 7): ledger, authority DKG, registrar keys, envelopes.

``Setup`` initializes the core system actors:

* the bulletin board and its three sub-ledgers;
* the election authority members, who run a DKG producing the collective
  ElGamal public key ``A_pk`` used for public credential tags and ballots;
* the registrar actors — officials (OSDs), kiosks and envelope printers —
  each with a Schnorr signing key pair, plus the shared official↔kiosk MAC
  key ``s_rk``;
* the electoral roll posted to ``L_R``;
* the initial supply of envelopes, whose challenge hashes the printers commit
  to on ``L_E``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.crypto.dkg import DistributedKeyGeneration
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group
from repro.crypto.mac import mac_keygen
from repro.crypto.schnorr import SigningKeyPair, schnorr_keygen
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import RollEntry
from repro.registration.envelope_printer import EnvelopePrinter
from repro.registration.materials import Envelope
from repro.runtime.precompute import warm_fixed_base


@dataclass
class RegistrarKeys:
    """Key material for one registrar site."""

    official_keys: List[SigningKeyPair]
    kiosk_keys: List[SigningKeyPair]
    printer_keys: List[SigningKeyPair]
    shared_mac_key: bytes

    @property
    def kiosk_public_keys(self) -> List:
        return [keypair.public for keypair in self.kiosk_keys]


@dataclass
class ElectionSetup:
    """Everything produced by the setup phase, shared by all later phases."""

    group: Group
    board: BulletinBoard
    authority: DistributedKeyGeneration
    registrar: RegistrarKeys
    envelope_printers: List[EnvelopePrinter]
    envelope_supply: List[Envelope] = field(default_factory=list)
    min_envelopes_per_booth: int = 20

    @property
    def authority_public_key(self):
        return self.authority.public_key

    @property
    def elgamal(self) -> ElGamal:
        return ElGamal(self.group)

    # Envelope supply management -------------------------------------------------

    def restock_envelopes(self, count: int, printer_index: int = 0) -> List[Envelope]:
        """Print additional envelopes (footnote 6: supplies can be topped up)."""
        printer = self.envelope_printers[printer_index]
        fresh = printer.print_envelopes(count)
        self.envelope_supply.extend(fresh)
        return fresh

    def take_envelopes(self, count: int) -> List[Envelope]:
        """Move ``count`` envelopes from the supply into a privacy booth."""
        if count > len(self.envelope_supply):
            raise ValueError("not enough envelopes in the supply; restock first")
        taken, self.envelope_supply = self.envelope_supply[:count], self.envelope_supply[count:]
        return taken

    @classmethod
    def run(
        cls,
        group: Group,
        voter_ids: List[str],
        num_authority_members: int = 4,
        num_officials: int = 1,
        num_kiosks: int = 1,
        num_printers: int = 1,
        envelopes_per_voter: int = 3,
        min_envelopes_per_booth: int = 20,
        board: Optional[BulletinBoard] = None,
    ) -> "ElectionSetup":
        """Run the full setup procedure of Fig. 7."""
        board = board if board is not None else BulletinBoard()
        board.append_many([RollEntry(voter_id) for voter_id in voter_ids])

        authority = DistributedKeyGeneration.run(group, num_authority_members)

        # The two bases every later phase exponentiates millions of times —
        # the generator (credential key generation, Schnorr commitments) and
        # the collective public key (every public-credential-tag and ballot
        # encryption) — get their fixed-base tables up front.  No-ops for the
        # small testing group.
        warm_fixed_base(group.generator)
        warm_fixed_base(authority.public_key)

        registrar = RegistrarKeys(
            official_keys=[schnorr_keygen(group) for _ in range(num_officials)],
            kiosk_keys=[schnorr_keygen(group) for _ in range(num_kiosks)],
            printer_keys=[schnorr_keygen(group) for _ in range(num_printers)],
            shared_mac_key=mac_keygen(),
        )

        printers = [
            EnvelopePrinter(group=group, keypair=keypair, board=board)
            for keypair in registrar.printer_keys
        ]

        # n_E > c·|V| + λ_E·|K| (Fig. 7, line 5): enough envelopes for the
        # expected consumption plus the per-booth minimum that keeps the number
        # of envelopes per booth uncountable by a coerced voter.
        target = envelopes_per_voter * len(voter_ids) + min_envelopes_per_booth * num_kiosks
        supply: List[Envelope] = []
        for index in range(target):
            printer = printers[index % len(printers)]
            supply.extend(printer.print_envelopes(1))
        # Setup is durable before the first registration, on a write-behind
        # board too: the roll and the envelope commitments reach the chains.
        board.flush()

        return cls(
            group=group,
            board=board,
            authority=authority,
            registrar=registrar,
            envelope_printers=printers,
            envelope_supply=supply,
            min_envelopes_per_booth=min_envelopes_per_booth,
        )
