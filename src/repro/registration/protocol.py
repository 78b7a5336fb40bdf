"""End-to-end TRIP registration orchestration (Fig. 1 / Fig. 6).

:func:`run_registration` walks one voter through the complete workflow —
check-in, kiosk authorization, real-credential creation, any number of
fake-credential creations, check-out and activation — wiring together the
actor objects and collecting the per-phase latency decomposition that the
Figure 4 benchmarks consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.crypto.group import Group
from repro.ledger.records import RegistrationRecord
from repro.peripherals.clock import LatencyLedger
from repro.peripherals.hardware import HardwareProfile, hardware_profile
from repro.registration.kiosk import Kiosk, KioskSession
from repro.registration.materials import Envelope, EnvelopeSymbol
from repro.registration.official import RegistrationOfficial
from repro.registration.setup import ElectionSetup
from repro.registration.vsd import ActivationReport, VoterSupportingDevice
from repro.registration.voter import Voter


@dataclass
class RegistrationOutcome:
    """Everything produced by one voter's registration session."""

    voter: Voter
    session: KioskSession
    record: RegistrationRecord
    activation_reports: List[ActivationReport]
    vsd: VoterSupportingDevice
    latency: LatencyLedger
    #: The sequence number the registration ledger's append gave ``record``.
    ledger_seq: int = -1

    @property
    def all_activated(self) -> bool:
        return all(report.success for report in self.activation_reports)

    @property
    def real_activated(self) -> bool:
        return any(
            report.success and report.credential is not None and report.credential.is_real
            for report in self.activation_reports
        )

    @property
    def total_wall_seconds(self) -> float:
        return self.latency.total_wall_seconds()


@dataclass
class RegistrationSession:
    """A reusable driver binding one kiosk, one official and one booth supply."""

    setup: ElectionSetup
    profile: HardwareProfile = field(default_factory=lambda: hardware_profile("H1"))
    kiosk: Optional[Kiosk] = None
    official: Optional[RegistrationOfficial] = None
    booth_envelopes: List[Envelope] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.kiosk is None:
            self.kiosk = Kiosk(
                group=self.setup.group,
                keypair=self.setup.registrar.kiosk_keys[0],
                authority_public_key=self.setup.authority_public_key,
                shared_mac_key=self.setup.registrar.shared_mac_key,
                profile=self.profile,
            )
        if self.official is None:
            self.official = RegistrationOfficial(
                group=self.setup.group,
                keypair=self.setup.registrar.official_keys[0],
                shared_mac_key=self.setup.registrar.shared_mac_key,
                board=self.setup.board,
                kiosk_public_keys=self.setup.registrar.kiosk_public_keys,
                profile=self.profile,
            )
        if not self.booth_envelopes:
            self.restock_booth(self.setup.min_envelopes_per_booth)

    @property
    def group(self) -> Group:
        return self.setup.group

    def restock_booth(self, count: int) -> None:
        """Move envelopes from the central supply into this booth."""
        needed = max(0, count - len(self.booth_envelopes))
        if needed == 0:
            return
        if len(self.setup.envelope_supply) < needed:
            self.setup.restock_envelopes(needed - len(self.setup.envelope_supply) + 10)
        self.booth_envelopes.extend(self.setup.take_envelopes(needed))

    def pick_envelope_with(self, symbol: EnvelopeSymbol) -> Envelope:
        """The voter's pick among the booth envelopes bearing ``symbol``.

        The stock's symbols are random, so it can lack the one the kiosk
        printed; an official then brings in one envelope *of that symbol*,
        which makes the pick total.
        """
        if all(envelope.symbol != symbol for envelope in self.booth_envelopes):
            self.booth_envelopes.extend(
                self.setup.envelope_printers[0].print_envelopes(1, symbols=[symbol])
            )
        return Voter.pick_envelope(self.booth_envelopes, symbol=symbol)

    def _consume_envelope(self, envelope: Envelope) -> None:
        self.booth_envelopes.remove(envelope)

    # ------------------------------------------------------------------ main flow

    def register(
        self,
        voter: Voter,
        activate: bool = True,
        vsd_profile: Optional[HardwareProfile] = None,
    ) -> RegistrationOutcome:
        """Run the complete registration workflow for ``voter``."""
        # Keep the booth at its minimum stock (λ_E in the paper): enough that a
        # coerced voter cannot count envelopes, and enough that every symbol is
        # almost surely represented.
        self.restock_booth(voter.num_fake_credentials + self.setup.min_envelopes_per_booth)

        # Snapshot the actors' latency ledgers so a reused session only
        # attributes this voter's spans to this outcome.
        official_span_start = len(self.official.latency.spans)
        kiosk_span_start = len(self.kiosk.latency.spans)

        # 1. Check-in at the official's desk.
        ticket = self.official.check_in(voter.voter_id)
        voter.check_in_ticket = ticket

        # 2. Privacy booth: authorize the session.
        session = self.kiosk.authorize(ticket)

        # 3. Real credential (sound order).
        self.kiosk.begin_real_credential(session)
        real_envelope = self.pick_envelope_with(session.pending_symbol)
        receipt = self.kiosk.complete_real_credential(session, real_envelope)
        self._consume_envelope(real_envelope)
        voter.assemble_credential(
            receipt,
            real_envelope,
            is_real=True,
            observed_sound_order=session.real_sigma.is_sound_order,
        )

        # 4. Fake credentials (unsound order), as many as the voter wants.
        for index in range(voter.num_fake_credentials):
            fake_envelope = voter.pick_envelope(self.booth_envelopes)
            fake_receipt = self.kiosk.create_fake_credential(session, fake_envelope)
            self._consume_envelope(fake_envelope)
            voter.assemble_credential(
                fake_receipt,
                fake_envelope,
                is_real=False,
                observed_sound_order=session.fake_sigmas[index].is_sound_order,
            )

        # 5. Check-out with any one credential.
        record = self.official.check_out(voter.credential_for_check_out())

        # 6. Activation on the voter's device.
        vsd = VoterSupportingDevice(
            group=self.group,
            board=self.setup.board,
            voter_id=voter.voter_id,
            kiosk_public_keys=self.setup.registrar.kiosk_public_keys,
            authority_public_key=self.setup.authority_public_key,
            profile=vsd_profile or self.profile,
        )
        reports: List[ActivationReport] = []
        if activate:
            for credential in voter.credentials:
                reports.append(vsd.activate(credential))

        latency = LatencyLedger()
        latency.spans.extend(self.official.latency.spans[official_span_start:])
        latency.spans.extend(self.kiosk.latency.spans[kiosk_span_start:])
        latency.merge(vsd.latency)

        return RegistrationOutcome(
            voter=voter,
            session=session,
            record=record,
            activation_reports=reports,
            vsd=vsd,
            latency=latency,
            ledger_seq=self.official.last_ledger_seq,
        )


def run_registration(
    setup: ElectionSetup,
    voter: Voter,
    profile_key: str = "H1",
    activate: bool = True,
) -> RegistrationOutcome:
    """Convenience wrapper: register one voter on a given hardware profile."""
    session = RegistrationSession(setup=setup, profile=hardware_profile(profile_key))
    return session.register(voter, activate=activate)
