"""A challenge is printed as exactly one scalar below ``q``.

The kiosk's in-session check (``used_challenges``) and the envelope ledger's
duplicate check compare challenges as printed, while the Σ-protocol reduces
them mod ``q``.  A corrupt printer that prints ``e`` and ``e + q`` — the
fixed-width field has room for it on Ed25519 — would get two envelopes that
answer the same challenge past both checks, which is the envelope-stuffing
attack of Appendix F.3.  The strict reader refuses the second at the scan.
"""

from __future__ import annotations

import pytest

from repro.crypto.ed25519 import ed25519_group
from repro.crypto.encoding import scalar_width
from repro.registration.materials import MalformedCode
from repro.registration.protocol import RegistrationSession
from repro.registration.setup import ElectionSetup


def test_a_challenge_congruent_to_a_used_one_is_refused_at_the_scan():
    group = ed25519_group()
    setup = ElectionSetup.run(group, ["alice"], num_authority_members=2, envelopes_per_voter=2)
    registration = RegistrationSession(setup=setup)
    kiosk = registration.kiosk
    session = kiosk.authorize(registration.official.check_in("alice"))
    kiosk.begin_real_credential(session)

    printer, challenge = setup.envelope_printers[0], group.random_scalar()
    first = printer._print_one(session.pending_symbol, challenge=challenge)
    congruent = printer._print_one(session.pending_symbol, challenge=challenge + group.order)
    assert congruent.challenge < 1 << 8 * scalar_width(group)  # it fits the printed field
    assert congruent.challenge_hash != first.challenge_hash  # so the ledger keys them apart

    kiosk.complete_real_credential(session, first)
    with pytest.raises(MalformedCode) as refused:
        kiosk.create_fake_credential(session, congruent)
    assert (refused.value.code, refused.value.field) == ("envelope", "challenge")
    assert session.credentials_issued == 1 and session.used_challenges == {challenge}
