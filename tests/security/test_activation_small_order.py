"""Hostile QR codes: the device refuses what decoding with membership refused.

The device keeps every signature's ``R`` and the commit code's ``Y1``, ``Y2``
as the bytes the QR code carries and checks them by recomputing the element
and comparing encodings.  Pinned here:

* **verdict parity** on the toy, modp-256 and Ed25519 groups: for every
  element field of the three codes and every hostile rewrite of it (random
  bytes, a torsion or order-2 shift, a non-canonical ``y ≥ p``, a leading
  zero byte), ``activate`` answers what a reference that decodes every field
  with the group's decoder and then runs the strict equations answers;
* **small-order points**: a torsion component on ``R`` / ``Y`` is refused at
  the named signature or ZKP check, on ``c1`` / ``c2`` / ``K_pk`` / ``P_pk``
  by ``from_qr``;
* **keys outside the subgroup**: a mod-p signature made under ``-pk`` gets
  the textbook verdict ``g^s = R·pk^e``, which is why the verifier inverts
  ``pk^e`` instead of raising ``pk`` to ``q − e``;
* **why nothing folds**: with odd weights, two commitments each shifted by
  the element of order 2 cancel in a random-linear-combination fold, while
  each equation on its own fails.  Mod-p decoding checks the range only
  (ROADMAP item 2), so a malicious kiosk can print such a receipt there.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import replace

import pytest

from repro.crypto.chaum_pedersen import ChaumPedersenCommit, chaum_pedersen_verify
from repro.crypto.ed25519 import (
    _IDENTITY_EXT,
    _P,
    _Q,
    _decode,
    _encode,
    _ext_add,
    _ext_equal,
    _ext_scalar_mul,
    ed25519_group,
)
from repro.crypto.elgamal import ElGamalCiphertext
from repro.crypto.group import ElementEncoding
from repro.crypto.modp_group import modp_group_256, testing_group
from repro.crypto.schnorr import SigningKeyPair, schnorr_challenge, schnorr_keygen, schnorr_sign, schnorr_verify
from repro.registration.qr import QRCode
from repro.registration.materials import (
    CommitCode,
    Envelope,
    PaperCredential,
    ResponseCode,
    commit_message,
    response_message,
    scalar_width,
)
from repro.registration.protocol import RegistrationSession
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter
from repro.registration.vsd import VoterSupportingDevice
from repro.runtime.batch import batch_chaum_pedersen_verify
from repro.ledger.records import EnvelopeCommitmentRecord, RegistrationRecord

GROUPS = [testing_group, modp_group_256, ed25519_group]
GROUP_IDS = ["toy", "modp256", "ed25519"]

#: ``(code, field index)`` of every element field, in the order the device
#: scans the codes: the commit code's c1, c2, Y1, Y2, R; the response code's
#: K_pk, R; the envelope's P_pk, R.
ELEMENT_FIELDS = [(0, index) for index in range(1, 6)] + [(code, index) for code in (1, 2) for index in (2, 3)]
#: The fields a verification equation determines: they stay bytes.
ENCODED_FIELDS = {(0, 3), (0, 4), (0, 5), (1, 3), (2, 3)}
CODES = [CommitCode, ResponseCode, Envelope]


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
    data, fields = qr.payload, []
    while data:
        length = int.from_bytes(data[:2], "big")
        fields.append(data[2 : 2 + length])
        data = data[2 + length :]
    return fields


def _payload(fields) -> bytes:
    return b"".join(len(field).to_bytes(2, "big") + field for field in fields)


def _resigned(group, fields, kiosk_keys):
    """A commit code's ``fields`` with the kiosk's signature over whatever they now hold."""
    encoded = [ElementEncoding(group, data) for data in fields[1:5]]
    message = commit_message(
        fields[0].decode(), ElGamalCiphertext(*encoded[:2]), ChaumPedersenCommit(*encoded[2:])
    )
    signature = schnorr_sign(kiosk_keys, message)
    return fields[:5] + [signature.commitment.to_bytes(), signature.response.to_bytes(scalar_width(group), "big")]


def _shown(credential, monkeypatch, qrs):
    """Make ``credential`` show ``qrs`` to the device."""
    monkeypatch.setattr(credential, "visible_activation_qrs", lambda group: qrs)
    return credential


# ------------------------------------------------------------------ the reference


def _reference(group, device, qrs, used):
    """What the device must say about ``qrs``: decode, then the strict equations.

    Every element field goes through ``group.element_from_bytes`` (on Ed25519
    a decode with the subgroup check).  A refused base or ledger-bound value
    (c1, c2, K_pk, P_pk) raises ``ValueError`` as ``from_qr`` does; a refused
    ``R`` or ``Y`` fails the equation it belongs to.  The equations are the
    textbook ones written with ``**``: ``g^s = R·pk^e`` and
    ``Y1 = g^r·C1^e``, ``Y2 = A^r·X^e``.  ``used`` holds the challenges a
    successful activation consumed.
    """
    commit_fields, response_fields, envelope_fields = (_fields(qr) for qr in qrs)
    decode = group.element_from_bytes
    c1, c2 = decode(commit_fields[1]), decode(commit_fields[2])
    kiosk_key, printer_key = decode(response_fields[2]), decode(envelope_fields[2])

    def element(data):
        try:
            return decode(data)
        except ValueError:
            return None

    def signed(public, message, commitment_bytes, response_bytes):
        commitment = element(commitment_bytes)
        challenge = schnorr_challenge(group, ElementEncoding(group, commitment_bytes), public, message)
        g_s = group.generator ** int.from_bytes(response_bytes, "big")
        return commitment is not None and g_s == commitment * (public ** challenge)

    voter_id = commit_fields[0].decode()
    credential_secret = int.from_bytes(response_fields[0], "big")
    zkp_response = int.from_bytes(response_fields[1], "big")
    challenge = int.from_bytes(envelope_fields[1], "big")
    envelope = Envelope(symbol=None, challenge=challenge, printer_public_key=printer_key, printer_signature=None)
    credential_public = group.generator ** credential_secret
    public_credential = ElGamalCiphertext(c1, c2)
    printed_commit = ChaumPedersenCommit(
        ElementEncoding(group, commit_fields[3]), ElementEncoding(group, commit_fields[4])
    )
    y1, y2 = element(commit_fields[3]), element(commit_fields[4])
    authority = device.authority_public_key
    x = c2 * credential_public.inverse()

    if kiosk_key not in device.kiosk_public_keys:
        return "kiosk key not authorized"
    if not signed(kiosk_key, commit_message(voter_id, public_credential, printed_commit), *commit_fields[5:7]):
        return "kiosk signature on commit code invalid"
    message = response_message(credential_public, challenge, zkp_response)
    if not signed(kiosk_key, message, *response_fields[3:5]):
        return "kiosk signature on response code invalid"
    if not signed(printer_key, envelope.challenge_hash, *envelope_fields[3:5]):
        return "printer signature on envelope invalid"
    if device.board.get(EnvelopeCommitmentRecord, envelope.challenge_hash) is None:
        return "envelope challenge not committed on the ledger"
    if (
        y1 is None
        or y2 is None
        or y1 != (group.generator ** zkp_response) * (c1 ** challenge)
        or y2 != (authority ** zkp_response) * (x ** challenge)
    ):
        return "ZKP transcript failed verification"
    record = device.board.get(RegistrationRecord, voter_id)
    if record is None:
        return "no registration record on the ledger"
    if record.public_credential_c1 != c1 or record.public_credential_c2 != c2:
        return "public credential does not match the ledger record"
    if record.kiosk_public_key != kiosk_key:
        return "kiosk key does not match the ledger record"
    if challenge in used:
        return "envelope challenge already used (possible duplicate envelopes)"
    used.add(challenge)
    return ""


def _verdict(fn):
    try:
        return fn()
    except ValueError:
        return "ValueError"


# ------------------------------------------------------------------ hostile rewrites


def _rewrites(group, data: bytes, rng: random.Random):
    """``(name, bytes)`` for every hostile rewrite of one element field."""
    yield "random", rng.randbytes(len(data))
    yield "leading-zero", b"\x00" + data
    if group is ed25519_group():
        point = _decode(data)
        for index, torsion in enumerate(_torsion_points()):
            yield f"torsion[{index}]", _encode(_ext_add(point, torsion))
        yield "x·(p−1)", data[:31] + bytes([data[31] ^ 0x80])
        raw = int.from_bytes(data, "little")
        sign, y = raw >> 255, raw & ((1 << 255) - 1)
        yield "y≥p", ((sign << 255) | (_P + y % 19)).to_bytes(32, "little")
    else:
        value, modulus = int.from_bytes(data, "big"), int(group.modulus)
        yield "x·(p−1)", (value * (modulus - 1) % modulus).to_bytes(len(data), "big")
        if value + modulus < 1 << (8 * len(data)):
            yield "y≥p", (value + modulus).to_bytes(len(data), "big")


@pytest.mark.parametrize("group_factory", GROUPS, ids=GROUP_IDS)
def test_hostile_fields_get_the_verdict_decoding_would_give(group_factory, monkeypatch, powers):
    group = group_factory()
    setup, credential, device = _registered(group)
    honest = credential.insert_for_transport().lift_for_activation().visible_activation_qrs(group)
    rng, used, seen = random.Random(27), set(), set()
    for code, index in ELEMENT_FIELDS:
        for name, data in _rewrites(group, _fields(honest[code])[index], rng):
            fields = _fields(honest[code])
            fields[index] = data
            variants = [fields]
            if code == 0 and index != 5:
                # A kiosk signs what it prints: past the commit signature.
                variants.append(_resigned(group, fields, setup.registrar.kiosk_keys[0]))
            for variant in variants:
                qrs = list(honest)
                qrs[code] = QRCode(payload=_payload(variant), label=honest[code].label)
                expected = _verdict(lambda: _reference(group, device, qrs, used))
                shown = _shown(credential, monkeypatch, qrs)
                got = _verdict(lambda: device.activate(shown).failed_check)
                assert got == expected, (code, index, name, len(variants))
                seen.add(expected)
    assert powers["multiexp"] == 0
    # The rewrites reach every field's own refusal, not just the first check.
    assert {
        "ValueError",
        "kiosk signature on commit code invalid",
        "kiosk signature on response code invalid",
        "printer signature on envelope invalid",
        "ZKP transcript failed verification",
    } <= seen


def test_the_honest_codes_pass_the_reference_and_the_device(monkeypatch):
    group = testing_group()
    _, credential, device = _registered(group)
    honest = credential.insert_for_transport().lift_for_activation().visible_activation_qrs(group)
    assert _reference(group, device, honest, set()) == ""
    assert device.activate(credential).success


# ------------------------------------------------------------------ small-order points


def test_a_torsion_component_is_refused_at_the_check_that_owns_the_field(monkeypatch, powers):
    group = ed25519_group()
    setup, credential, device = _registered(group)
    honest = credential.insert_for_transport().lift_for_activation().visible_activation_qrs(group)
    owner = {
        (0, 3): "ZKP transcript failed verification",
        (0, 4): "ZKP transcript failed verification",
        (0, 5): "kiosk signature on commit code invalid",
        (1, 3): "kiosk signature on response code invalid",
        (2, 3): "printer signature on envelope invalid",
    }
    for torsion in _torsion_points():
        for code, index in ELEMENT_FIELDS:
            fields = _fields(honest[code])
            fields[index] = _encode(_ext_add(_decode(fields[index]), torsion))
            if code == 0 and index in (3, 4):
                # The kiosk signs the shifted commit, so only the ZKP can object.
                fields = _resigned(group, fields, setup.registrar.kiosk_keys[0])
            forged = QRCode(payload=_payload(fields), label=honest[code].label)
            shown = _shown(credential, monkeypatch, [forged if i == code else qr for i, qr in enumerate(honest)])
            if (code, index) in ENCODED_FIELDS:
                CODES[code].from_qr(forged, group)  # the bytes are kept, not judged
                report = device.activate(shown)
                assert not report.success and report.failed_check == owner[code, index], (code, index)
            else:
                with pytest.raises(ValueError, match="subgroup"):
                    CODES[code].from_qr(forged, group)
                with pytest.raises(ValueError, match="subgroup"):
                    device.activate(shown)
    assert powers["multiexp"] == 0 and device.credentials == []


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

    # What a fold would have let through: the same transcript, folded.
    honest = device.activate_or_raise(credential.insert_for_transport()).transcript
    transcript = replace(honest, commit=shifted)
    assert not chaum_pedersen_verify(transcript)
    assert all(batch_chaum_pedersen_verify([transcript]) for _ in range(8))


@pytest.mark.parametrize("group_factory", [testing_group, modp_group_256], ids=["toy", "modp256"])
def test_a_signature_under_a_key_outside_the_subgroup_gets_the_textbook_verdict(group_factory):
    """``-pk`` decodes on mod-p; whoever holds ``sk`` can sign under it.

    ``g^s = R·(-pk)^e`` holds exactly when ``e`` is even.  The recomputed
    ``R' = g^s·((-pk)^e)⁻¹`` agrees; ``g^s·(-pk)^(q-e)`` would invert that.
    """
    group = group_factory()
    keys = schnorr_keygen(group)
    shifted = SigningKeyPair(secret=keys.secret, public=keys.public * group.element(int(group.modulus) - 1))
    verdicts = set()
    for index in range(16):
        message = b"m%d" % index
        signature = schnorr_sign(shifted, message)
        challenge = schnorr_challenge(group, signature.commitment, shifted.public, message)
        textbook = group.generator ** signature.response == signature.commitment * (shifted.public ** challenge)
        assert schnorr_verify(shifted.public, message, signature) == textbook == (challenge % 2 == 0)
        verdicts.add(textbook)
    assert verdicts == {True, False}
