"""Verifying by recomputation publishes what decoding published, and no encoding leaks.

The device, the official and the kiosk keep each signature's ``R`` and the
commit code's ``Y1``, ``Y2`` as bytes until a check recomputes them.  Nothing
of that may reach a published artefact:

* with every draw seeded, the QR payloads, the registration records, the
  ledger chain heads and the ``batched`` audit fingerprint of a whole
  election hash to the digests below, on the toy, modp-256 and Ed25519
  groups — the values the decode-everything implementation produced;
* the records on the ledger and the credentials on the device hold group
  elements only;
* a fold handed an encoding refuses it with ``TypeError``.

And the mod-p decoder is canonical: an element is exactly ``element_bytes``
bytes, so a leading zero byte is refused in a QR field and in a ledger row.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import secrets

import pytest

from repro.crypto.chaum_pedersen import ChaumPedersenCommit, ChaumPedersenStatement, fiat_shamir_prove
from repro.crypto.ed25519 import ed25519_group
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import ElementEncoding, Group, GroupElement
from repro.crypto.modp_group import modp_group_256, testing_group
from repro.crypto.schnorr import SchnorrSignature, schnorr_keygen, schnorr_sign
from repro.election import ElectionConfig, VotegralElection
from repro.ledger.records import MalformedField, RegistrationRecord
from repro.registration.qr import QRCode
from repro.registration.materials import CheckOutTicket, check_out_message
from repro.runtime.batch import ProductAccumulator, batch_chaum_pedersen_verify, batch_schnorr_verify
from repro.tally import mixnet

#: sha256 over every voter's four QR payloads per credential, the registration
#: records, the three chain heads and the audit fingerprint (``_published``).
PUBLISHED = {
    "toy": "04e48acb4a054a640853e47ed64d6f8d13b1eff3353c520fdd2542f4f5a10d83",
    "modp256": "f733f72ffbff65ca7ae29025b607f43a81cae67de23ad3d44a07e7962a278121",
    "ed25519": "59e899bb99e4a46ff263d4e92ef45d08f67f27a9c7199b078c002d9a29616e08",
}
GROUPS = {"toy": testing_group, "modp256": modp_group_256, "ed25519": ed25519_group}


def _election(monkeypatch, group_factory, seed=7) -> VotegralElection:
    rng = random.Random(seed)
    monkeypatch.setattr(Group, "random_scalar", lambda self: rng.randrange(1, self.order))
    monkeypatch.setattr(secrets, "randbelow", lambda n: rng.randrange(n))
    monkeypatch.setattr(secrets, "token_bytes", lambda n=32: rng.randbytes(n))
    monkeypatch.setattr(mixnet, "random_permutation", lambda n: rng.sample(range(n), n))
    election = VotegralElection(ElectionConfig(
        num_voters=3, num_options=3, num_mixers=2, proof_rounds=2, num_authority_members=2,
        fake_credentials_per_voter=1, group_factory=group_factory, board_spec="memory",
        audit_spec="batched", executor_spec="serial",
    ))
    election.run_setup()
    election.run_registration()
    election.run_voting(rng=random.Random(seed))
    election.run_tally()
    monkeypatch.undo()
    return election


def _published(election) -> str:
    digest, group = hashlib.sha256(), election.group
    for outcome in election.outcomes:
        for credential in outcome.voter.credentials:
            receipt = credential.receipt
            for code in (receipt.commit_code, receipt.check_out_ticket, receipt.response_code, credential.envelope):
                digest.update(code.to_qr(group).payload)
        digest.update(outcome.record.payload())
    for name, log in election.setup.board.chain_logs():
        digest.update(name.encode() + log.head().head_hash)
    digest.update(election.audit_report.fingerprint().encode())
    return digest.hexdigest()


@pytest.mark.parametrize("name", list(GROUPS))
def test_a_seeded_election_publishes_the_same_bytes(monkeypatch, name):
    election = _election(monkeypatch, GROUPS[name])
    try:
        assert election.audit_report.ok
        assert _published(election) == PUBLISHED[name]

        for outcome in election.outcomes:
            record = outcome.record
            for field in dataclasses.fields(record):
                value = getattr(record, field.name)
                if isinstance(value, SchnorrSignature):
                    value = value.commitment
                assert not isinstance(value, ElementEncoding), field.name
            assert isinstance(record.kiosk_signature.commitment, GroupElement)
            assert isinstance(record.official_signature.commitment, GroupElement)
            for report, paper in zip(outcome.activation_reports, outcome.voter.credentials):
                credential = report.credential
                assert isinstance(credential.public_key, GroupElement)
                assert isinstance(credential.kiosk_public_key, GroupElement)
                assert isinstance(credential.public_credential.c1, GroupElement)
                assert isinstance(credential.public_credential.c2, GroupElement)
                commit = credential.transcript.commit
                assert isinstance(commit.commit_g, GroupElement) and isinstance(commit.commit_h, GroupElement)
                assert commit == paper.receipt.commit_code.commit  # the recomputed Y1', Y2' are the printed ones
    finally:
        election.close()


def test_a_fold_refuses_an_encoding():
    group = testing_group()
    keys = schnorr_keygen(group)
    signatures = [schnorr_sign(keys, message) for message in (b"a", b"b")]
    encoded = [
        SchnorrSignature(ElementEncoding(group, signature.commitment.to_bytes()), signature.response)
        for signature in signatures
    ]
    lone = [(keys.public, b"a", encoded[0])]
    mixed = lone + [(keys.public, b"b", signatures[1])]
    for batch in (lone, mixed):
        with pytest.raises(TypeError, match="ElementEncoding"):
            batch_schnorr_verify(batch)
    with pytest.raises(TypeError, match="ElementEncoding"):
        ProductAccumulator(group).multiply(encoded[0].commitment, 3)
    # A transcript whose commit is still bytes folds no more than a signature does.
    statement = ChaumPedersenStatement(group.generator, group.power(5), group.power(7), group.power(35))
    transcript = fiat_shamir_prove(statement, 7)
    printed = dataclasses.replace(transcript, commit=ChaumPedersenCommit(
        ElementEncoding(group, transcript.commit.commit_g.to_bytes()),
        ElementEncoding(group, transcript.commit.commit_h.to_bytes()),
    ))
    with pytest.raises(TypeError, match="ElementEncoding"):
        batch_chaum_pedersen_verify([printed])


# ------------------------------------------------------------------ canonical mod-p decoding


def test_the_modp_decoder_takes_exactly_element_bytes():
    group = modp_group_256()
    element = group.power(12345)
    data = element.to_bytes()
    assert len(data) == group.element_bytes and group.element_from_bytes(data) == element
    with pytest.raises(ValueError, match="bytes"):
        group.element_from_bytes(b"\x00" + data)
    small = group.element(5)  # canonically zero bytes and a 5
    assert small.to_bytes()[0] == 0
    with pytest.raises(ValueError, match="bytes"):
        group.element_from_bytes(small.to_bytes().lstrip(b"\x00"))


def _check_out_ticket(group) -> CheckOutTicket:
    kiosk = schnorr_keygen(group)
    public_credential = ElGamal(group).encrypt(group.power(11), group.power(3))
    signature = schnorr_sign(kiosk, check_out_message("alice", public_credential))
    return CheckOutTicket("alice", public_credential, kiosk.public, signature)


def test_a_leading_zero_in_a_qr_field_is_refused():
    group = modp_group_256()
    qr = _check_out_ticket(group).to_qr(group)
    data, fields = qr.payload, []
    while data:  # the length-prefixed fields, as printed
        length = int.from_bytes(data[:2], "big")
        fields.append(data[2 : 2 + length])
        data = data[2 + length :]
    assert CheckOutTicket.from_qr(qr, group).public_credential.c1.to_bytes() == fields[1]
    fields[1] = b"\x00" + fields[1]  # c1, one byte longer, the same integer
    forged = QRCode(payload=b"".join(len(field).to_bytes(2, "big") + field for field in fields))
    with pytest.raises(ValueError, match="bytes"):
        CheckOutTicket.from_qr(forged, group)


def test_a_leading_zero_in_a_ledger_row_is_refused():
    group = modp_group_256()
    ticket = _check_out_ticket(group)
    official = schnorr_keygen(group)
    record = RegistrationRecord(
        voter_id="alice",
        public_credential_c1=ticket.public_credential.c1,
        public_credential_c2=ticket.public_credential.c2,
        kiosk_public_key=ticket.kiosk_public_key,
        kiosk_signature=ticket.kiosk_signature,
        official_public_key=official.public,
        official_signature=schnorr_sign(official, b"approve"),
    )
    row = list(record.to_row())
    assert RegistrationRecord.from_row(group, row) == record
    index = [name for name, _ in RegistrationRecord.COLUMNS].index("public_credential_c1")
    row[index] = b"\x00" + row[index]
    with pytest.raises(MalformedField) as refused:
        RegistrationRecord.from_row(group, row)
    assert refused.value.field == "public_credential_c1"
