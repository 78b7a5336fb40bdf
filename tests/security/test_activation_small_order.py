"""Why the device folds only where decoding proves subgroup membership.

A random-linear-combination fold weighs every equation with an *odd* small
exponent.  Shift both commitments of one Chaum–Pedersen transcript by the
element of order 2 and the two shifts meet in the folded product with an even
total exponent — they cancel, the fold accepts, and each equation on its own
still fails.  The strict per-item verdict is the device's contract, so:

* on a group whose decoder checks the range only (toy, mod-p — ROADMAP
  8(iv)) a malicious kiosk *can* print such a receipt, the fold *would*
  accept it, and ``activate`` takes the per-item path and refuses it;
* on Ed25519 the shifted point never becomes an element: ``from_qr`` raises
  on ``R + T`` for every non-identity 8-torsion ``T``, before any check runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.crypto.chaum_pedersen import ChaumPedersenCommit, chaum_pedersen_verify
from repro.crypto.ed25519 import (
    _IDENTITY_EXT,
    _Q,
    _decode,
    _encode,
    _ext_add,
    _ext_equal,
    _ext_scalar_mul,
    ed25519_group,
)
from repro.crypto.group import Group
from repro.crypto.modp_group import modp_group_256, testing_group
from repro.crypto.schnorr import schnorr_sign
from repro.peripherals.qr import QRCode
from repro.registration.codec import Decoder
from repro.registration.materials import CommitCode, Envelope, PaperCredential, ResponseCode, commit_message
from repro.registration.protocol import RegistrationSession
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter
from repro.registration.vsd import VoterSupportingDevice
from repro.runtime.batch import batch_chaum_pedersen_verify


def _registered(group):
    setup = ElectionSetup.run(group, ["alice"], num_authority_members=2, envelopes_per_voter=6)
    voter = Voter("alice", num_fake_credentials=0)
    RegistrationSession(setup=setup).register(voter, activate=False)
    device = VoterSupportingDevice(
        group=group,
        board=setup.board,
        voter_id="alice",
        kiosk_public_keys=setup.registrar.kiosk_public_keys,
        authority_public_key=setup.authority_public_key,
    )
    return setup, voter.real_credential(), device


@pytest.mark.parametrize("group_factory", [testing_group, modp_group_256], ids=["toy", "modp256"])
def test_commitments_shifted_by_minus_one_cancel_in_a_fold_and_the_device_refuses_them(group_factory):
    group = group_factory()
    setup, credential, device = _registered(group)
    commit_code = credential.receipt.commit_code
    minus_one = group.element(int(group.modulus) - 1)  # order 2: outside the order-q subgroup
    assert not group.is_member(minus_one)
    assert group.element_from_bytes(minus_one.to_bytes()) == minus_one  # the decoder lets it in

    shifted = ChaumPedersenCommit(commit_code.commit.commit_g * minus_one, commit_code.commit.commit_h * minus_one)
    forged = replace(
        commit_code,
        commit=shifted,
        kiosk_signature=schnorr_sign(
            setup.registrar.kiosk_keys[0],
            commit_message(commit_code.voter_id, commit_code.public_credential, shifted),
        ),
    )
    tampered = PaperCredential(
        replace(credential.receipt, commit_code=forged), credential.envelope, is_real=True
    ).insert_for_transport()

    report = device.activate(tampered)
    assert not report.success and report.failed_check == "ZKP transcript failed verification"

    # What the per-item path protected against: the same transcript, folded.
    honest = device.activate_or_raise(credential.insert_for_transport()).transcript
    transcript = replace(honest, commit=shifted)
    assert not chaum_pedersen_verify(transcript)
    assert all(batch_chaum_pedersen_verify([transcript]) for _ in range(8))


def _torsion_points():
    """The seven non-identity points of order dividing 8."""
    counter = 0
    while True:
        digest = hashlib.sha512(b"torsion" + bytes([counter])).digest()
        counter += 1
        try:
            candidate = _ext_scalar_mul(_Q, _decode(digest[:31] + bytes([digest[31] & 0x7F])))
        except ValueError:
            continue
        if not _ext_equal(_ext_scalar_mul(4, candidate), _IDENTITY_EXT):  # order exactly 8
            break
    points, current = [], candidate
    for _ in range(7):
        points.append(current)
        current = _ext_add(current, candidate)
    return points


def _fields(qr: QRCode):
    decoder, fields = Decoder(qr.payload), []
    while not decoder.exhausted:
        fields.append(decoder.get_bytes())
    return fields


def _payload(fields) -> bytes:
    return b"".join(len(field).to_bytes(2, "big") + field for field in fields)


def test_a_point_with_a_torsion_component_is_refused_by_from_qr_and_never_judged(monkeypatch):
    group = ed25519_group()
    _, credential, device = _registered(group)
    codes = [CommitCode, ResponseCode, Envelope]  # the order the device scans them in
    honest = credential.lift_for_activation().visible_activation_qrs(group)
    # The element fields of the three codes: c1, c2, Y1, Y2, R; K_pk, R; P_pk, R.
    slots = [(0, index) for index in range(1, 6)] + [(code, index) for code in (1, 2) for index in (2, 3)]

    judged = []
    monkeypatch.setattr(Group, "multi_exponentiate", lambda *args: judged.append(args))
    for torsion in _torsion_points():
        for code, index in slots:
            fields = _fields(honest[code])
            fields[index] = _encode(_ext_add(_decode(fields[index]), torsion))
            forged = QRCode(payload=_payload(fields), label=honest[code].label)
            with pytest.raises(ValueError, match="subgroup"):
                codes[code].from_qr(forged, group)
            # Shown to the device among the two honest codes, it gets no further.
            shown = [forged if position == code else qr for position, qr in enumerate(honest)]
            monkeypatch.setattr(credential, "visible_activation_qrs", lambda group, shown=shown: shown)
            with pytest.raises(ValueError, match="subgroup"):
                device.activate(credential)
    assert not judged and device.credentials == []
