"""The envelope printer actor.

Envelope printers issue the pre-printed envelopes voters use to supply ZKP
challenges (Fig. 7, line 5).  Each envelope carries a fresh random challenge
``e``, the printer's public key and a signature on ``H(e)``; the printer also
publishes ``(P_pk, H(e), σ_p)`` on the envelope ledger so activation-time
checks can detect duplicated or unregistered envelopes (Appendix F.3.5).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional

from repro.crypto.group import Group
from repro.crypto.schnorr import SigningKeyPair
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import EnvelopeCommitmentRecord
from repro.registration.materials import Envelope, EnvelopeSymbol


@dataclass
class EnvelopePrinter:
    """Prints envelopes and commits their challenge hashes to the ledger."""

    group: Group
    keypair: SigningKeyPair
    board: BulletinBoard
    _serial: itertools.count = field(default_factory=lambda: itertools.count(1))

    def print_envelopes(self, count: int, symbols: Optional[List[EnvelopeSymbol]] = None) -> List[Envelope]:
        """Print ``count`` fresh envelopes, publishing their commitments in one append."""
        envelopes = [
            self._sign(symbols[index] if symbols is not None else EnvelopeSymbol.random()) for index in range(count)
        ]
        self.board.append_many([self._commitment(envelope) for envelope in envelopes])
        return envelopes

    def _print_one(self, symbol: EnvelopeSymbol, challenge: Optional[int] = None) -> Envelope:
        envelope = self._sign(symbol, challenge)
        self.board.append(self._commitment(envelope))
        return envelope

    def _sign(self, symbol: EnvelopeSymbol, challenge: Optional[int] = None) -> Envelope:
        challenge = challenge if challenge is not None else self.group.random_scalar()
        return Envelope.signed(self.keypair, symbol, challenge, serial=next(self._serial))

    def _commitment(self, envelope: Envelope) -> EnvelopeCommitmentRecord:
        return EnvelopeCommitmentRecord(
            printer_public_key=self.keypair.public,
            challenge_hash=envelope.challenge_hash,
            printer_signature=envelope.printer_signature,
        )

    # Adversarial variant ---------------------------------------------------------

    def print_duplicate_envelopes(
        self,
        count: int,
        challenge: Optional[int] = None,
        symbols: Optional[List[EnvelopeSymbol]] = None,
    ) -> List[Envelope]:
        """Print ``count`` envelopes that all carry the *same* challenge.

        This is the envelope-stuffing attack of the individual-verifiability
        game (Appendix F.3): a compromised printer/registrar duplicates
        challenges to make the voter's pick predictable.  ``L_E`` holds each
        H(e) once, so the attacker commits the shared hash once and the
        envelopes pass the activation-time presence check; duplicate
        detection of the used challenges is what catches the attack when
        several of the duplicates get used.  A thorough attacker stuffs one
        duplicate per symbol (``symbols``) so the voter is guaranteed to find
        a match whatever the kiosk prints.
        """
        challenge = challenge if challenge is not None else self.group.random_scalar()
        envelopes = [
            self._sign(symbols[index] if symbols else EnvelopeSymbol.random(), challenge=challenge)
            for index in range(count)
        ]
        if envelopes:
            self.board.append(self._commitment(envelopes[0]))
        return envelopes
