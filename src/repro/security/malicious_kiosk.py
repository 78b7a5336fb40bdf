"""Malicious kiosk and registrar strategies (the integrity adversary).

Two concrete attacks from §5.1 are implemented against the real kiosk code:

* :class:`WrongOrderKiosk` — when asked for a *real* credential it asks for
  the envelope **first** and then fabricates the whole receipt with the
  simulator, i.e. it runs the fake-credential procedure while claiming the
  output is real.  The result verifies perfectly at activation; the only
  defence is the voter noticing the wrong step order in the booth — exactly
  the behaviour the §7.5 user study measures (47 % / 10 % detection).
* :class:`CredentialStealingKiosk` — issues the voter a credential whose tag
  encrypts a key the *adversary* keeps, so the adversary can later cast the
  voter's counting vote.  Because the printed ZKP must then be unsound, this
  reduces to the wrong-order attack (or to guessing the envelope challenge,
  which the envelope-stuffing game in :mod:`repro.security.games` covers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro import telemetry
from repro.crypto.chaum_pedersen import simulate_chaum_pedersen
from repro.crypto.schnorr import SigningKeyPair, schnorr_keygen
from repro.crypto.sigma import Move, SigmaSession
from repro.registration.kiosk import Kiosk, KioskSession
from repro.registration.materials import CheckOutTicket, CommitCode, Envelope, Receipt, ResponseCode
from repro.registration.qr import print_codes, scan


@dataclass
class WrongOrderKiosk(Kiosk):
    """A kiosk that issues 'real' credentials via the unsound (fake) procedure."""

    def issue_claimed_real_credential(self, session: KioskSession, envelope: Envelope) -> Receipt:
        """The attack: take the envelope first, simulate, print everything at once.

        The voter-observable difference from an honest real-credential issuance
        is exactly the step order; the printed receipt is indistinguishable.
        """
        sigma = SigmaSession()
        with telemetry.span("registration.phase", phase="RealToken"):
            decoded = Envelope.from_qr(scan(envelope.to_qr(self.group)), self.group, serial=envelope.serial)
            sigma.record(Move.CHALLENGE)

            # The adversary keeps the "real" key for itself and gives the voter
            # a fresh key whose realness proof is simulated.
            adversary_credential = schnorr_keygen(self.group)
            victim_credential = schnorr_keygen(self.group)
            randomness = self.group.random_scalar()
            public_credential = self.elgamal.encrypt(
                self.authority_public_key, adversary_credential.public, randomness
            )
            statement = self._statement(public_credential, victim_credential.public)
            transcript = simulate_chaum_pedersen(statement, decoded.challenge)
            sigma.record(Move.COMMIT)
            sigma.record(Move.RESPONSE)

            commit_code = CommitCode.signed(self.keypair, session.voter_id, public_credential, transcript.commit)
            check_out = CheckOutTicket.signed(self.keypair, session.voter_id, public_credential)
            response_code = ResponseCode.signed(self.keypair, victim_credential, decoded.challenge, transcript.response)
            print_codes(
                commit_code.to_qr(self.group),
                check_out.to_qr(self.group),
                response_code.to_qr(self.group),
                text_lines=2,
            )

        session.used_challenges.add(decoded.challenge)
        session.public_credential = public_credential
        session.real_secret = victim_credential.secret
        session.real_public = victim_credential.public
        session.check_out_ticket = check_out
        session.real_sigma = sigma
        session.credentials_issued += 1
        # The adversary walks away with the key that will actually count.
        self.stolen_keypairs.append(adversary_credential)
        return Receipt(
            symbol=decoded.symbol,
            commit_code=commit_code,
            check_out_ticket=check_out,
            response_code=response_code,
        )

    stolen_keypairs: List[SigningKeyPair] = field(default_factory=list)


@dataclass
class CredentialStealingKiosk(WrongOrderKiosk):
    """Alias emphasising the adversary's goal (§5.1 individual-verifiability attack).

    The mechanics are the wrong-order attack: stealing the counting credential
    while handing the voter a fake requires forging a sound-looking proof,
    which the kiosk can only do by learning the challenge before committing.
    """
