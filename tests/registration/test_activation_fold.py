"""Activation recomputes and compares, and the kiosk's simulator uses what the kiosk knows.

The device's three signature checks and the ZKP transcript are ``Check``s
(``repro.audit.checks.registration_activation_checks``), judged one by one
with the audit's own predicates on every group.  No signature ``R`` and no
commit ``Y1``, ``Y2`` is decoded: each check recomputes the element from the
response and compares encodings.  Pinned here:

* the **budget** on Ed25519 with ``g``, ``A_pk`` and the signer keys warm:
  an activation is two plain powers (``C1^e``, ``X^e``), nine table powers,
  no multi-exponentiation and no decode of an ``R`` or ``Y``; a check-out
  takes no plain power; a fake credential takes only table powers; a
  3-voter registration decodes eight points;
* **the verdicts**: every tampering the device can see is named by its
  check, on the toy, modp-256 and Ed25519 groups;
* **the bytes**: with the draws seeded, a fake credential's commit is the
  simulator written with ``**`` on ``C1`` and ``X``.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.crypto.ed25519 import Ed25519Group, ed25519_group
from repro.crypto.group import Group
from repro.election import ElectionConfig, VotegralElection
from repro.crypto.modp_group import modp_group_256, testing_group
from repro.crypto.schnorr import SchnorrSignature, schnorr_keygen, schnorr_sign
from repro.registration.extensions import delegate_in_booth
from repro.registration.materials import PaperCredential, commit_message, response_message
from repro.registration.protocol import RegistrationSession
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter
from repro.registration.vsd import VoterSupportingDevice
from repro.runtime import precompute

GROUPS = [testing_group, modp_group_256, ed25519_group]
GROUP_IDS = ["toy", "modp256", "ed25519"]


def _setup(group_factory) -> ElectionSetup:
    return ElectionSetup.run(
        group_factory(), ["alice", "bob"], num_authority_members=2, envelopes_per_voter=6
    )


def _device(setup, voter_id="alice", kiosk_public_keys=None) -> VoterSupportingDevice:
    return VoterSupportingDevice(
        group=setup.group,
        board=setup.board,
        voter_id=voter_id,
        kiosk_public_keys=kiosk_public_keys or setup.registrar.kiosk_public_keys,
        authority_public_key=setup.authority_public_key,
    )


@pytest.fixture(scope="module")
def ed25519_setup():
    """An election on the paper's curve with ``g`` and ``A_pk`` warm, as ``run_setup`` leaves them."""
    precompute.clear_tables()
    setup = _setup(ed25519_group)
    precompute.warm_fixed_base(setup.group.generator)
    precompute.warm_fixed_base(setup.authority_public_key)
    yield setup
    precompute.clear_tables()


@pytest.fixture(scope="module")
def registered(ed25519_setup):
    """Alice, registered but not activated: one real credential and one fake, in that order."""
    voter = Voter("alice", num_fake_credentials=1)
    RegistrationSession(setup=ed25519_setup).register(voter, activate=False)
    return voter


# ------------------------------------------------------------------ budget


def _printed_points(credential):
    """The encodings of the R / Y fields of the three codes the device scans."""
    receipt, envelope = credential.receipt, credential.envelope
    return {
        receipt.commit_code.commit.commit_g.to_bytes(),
        receipt.commit_code.commit.commit_h.to_bytes(),
        receipt.commit_code.kiosk_signature.commitment.to_bytes(),
        receipt.response_code.kiosk_signature.commitment.to_bytes(),
        envelope.printer_signature.commitment.to_bytes(),
    }


@pytest.fixture()
def decodes(monkeypatch):
    """Every encoding handed to ``Ed25519Group.element_from_bytes``, and whether it was a memo miss."""
    seen = []
    original = Ed25519Group.element_from_bytes

    def recording(self, data):
        seen.append((bytes(data), bytes(data) not in self._decoded))
        return original(self, data)

    monkeypatch.setattr(Ed25519Group, "element_from_bytes", recording)
    return seen


def test_an_activation_is_two_plain_powers_and_nine_table_powers(ed25519_setup, powers, decodes):
    voter = Voter("bob", num_fake_credentials=1)
    RegistrationSession(setup=ed25519_setup).register(voter, activate=False)
    device = _device(ed25519_setup, "bob")
    for credential in voter.credentials:
        precompute.warm_fixed_base(credential.receipt.response_code.kiosk_public_key)
        precompute.warm_fixed_base(credential.envelope.printer_public_key)
        powers.clear()
        decodes.clear()
        report = device.activate(credential)
        assert report.success, report.failed_check
        assert report.credential.is_real == credential.is_real
        # Plain: C1^e and X^e.  Tables: c_pk = g^c_sk; g^s and pk^e for each
        # of three signatures; g^r and A_pk^r for the transcript.
        assert dict(powers) == {"plain": 2, "table": 9}
        assert decodes and not {data for data, _ in decodes} & _printed_points(credential)
    assert [c.is_real for c in device.credentials] == [True, False]


def test_a_check_out_takes_no_plain_power_once_the_kiosk_key_is_hot(ed25519_setup, powers):
    session = RegistrationSession(setup=ed25519_setup)
    precompute.warm_fixed_base(session.kiosk.public_key)
    kiosk_session = session.kiosk.authorize(session.official.check_in("alice"))
    session.kiosk.begin_real_credential(kiosk_session)
    envelope = session.pick_envelope_with(kiosk_session.pending_symbol)
    receipt = session.kiosk.complete_real_credential(kiosk_session, envelope)
    credential = PaperCredential(receipt, envelope, is_real=True).insert_for_transport()
    powers.clear()
    record = session.official.check_out(credential)
    # The check: g^s and K_pk^e.  The official's signature: g^k.
    assert dict(powers) == {"table": 3}
    assert record.kiosk_signature.to_bytes() == receipt.check_out_ticket.kiosk_signature.to_bytes()


def test_a_registration_decodes_the_credential_tags_and_the_two_signer_keys(decodes):
    """Three voters: their c1 and c2, one kiosk key, one printer key — eight decodes."""
    ed25519_group()._decoded.clear()
    election = VotegralElection(ElectionConfig(
        num_voters=3, num_options=3, num_authority_members=4, num_mixers=2, proof_rounds=2,
        group_factory=ed25519_group, executor_spec="serial", board_spec="memory",
    ))
    election.run_setup()
    decodes.clear()
    outcomes = election.run_registration()
    assert all(outcome.all_activated for outcome in outcomes)
    assert sum(miss for _, miss in decodes) == 8
    election.close()


def _booth(setup, voter_id):
    """A kiosk session that has issued its real credential, and spare envelopes."""
    session = RegistrationSession(setup=setup)
    kiosk_session = session.kiosk.authorize(session.official.check_in(voter_id))
    session.kiosk.begin_real_credential(kiosk_session)
    envelope = session.pick_envelope_with(kiosk_session.pending_symbol)
    session.kiosk.complete_real_credential(kiosk_session, envelope)
    spare = [e for e in session.booth_envelopes if e is not envelope]
    return session, kiosk_session, spare


def test_a_fake_credential_is_table_powers_only(ed25519_setup, powers):
    session, kiosk_session, spare = _booth(ed25519_setup, "bob")
    powers.clear()
    session.kiosk.create_fake_credential(kiosk_session, spare[0])
    # Key pair 1, the simulated commit 3, two signatures 2.
    assert powers["plain"] == 0 and powers["multiexp"] == 0 and powers["table"] == 6


def test_without_tables_a_fake_credential_still_verifies(powers):
    """Cold: three powers where the parent took four, and the device accepts the receipt."""
    precompute.clear_tables()
    setup = _setup(ed25519_group)
    precompute.clear_tables()  # run() may warm; this test wants none
    session, kiosk_session, spare = _booth(setup, "alice")
    powers.clear()
    receipt = session.kiosk.create_fake_credential(kiosk_session, spare[0])
    assert powers["plain"] + powers["table"] == 6
    session.official.check_out_ticket(kiosk_session.check_out_ticket)
    credential = PaperCredential(receipt, spare[0], is_real=False).insert_for_transport()
    assert _device(setup).activate(credential).success
    precompute.clear_tables()


# ------------------------------------------------------------------ the bytes


@pytest.mark.parametrize("group_factory", GROUPS, ids=GROUP_IDS)
def test_seeded_fake_commit_is_the_simulator_written_with_plain_powers(monkeypatch, group_factory):
    """Draw the fake key, then the response: ``(g^r · C1^e, A_pk^r · X^e)``, as before."""
    setup = _setup(group_factory)
    group, authority_key = setup.group, setup.authority_public_key
    session, kiosk_session, spare = _booth(setup, "alice")
    envelope = spare[0]

    rng = random.Random(43)
    monkeypatch.setattr(Group, "random_scalar", lambda self: rng.randrange(1, self.order))
    receipt = session.kiosk.create_fake_credential(kiosk_session, envelope)
    monkeypatch.undo()

    tape = random.Random(43)
    fake_secret, response = tape.randrange(1, group.order), tape.randrange(1, group.order)
    assert receipt.response_code.credential_secret == fake_secret
    assert receipt.response_code.zkp_response == response
    public_credential = kiosk_session.public_credential
    value_h = public_credential.c2 * (group.generator ** fake_secret).inverse()
    commit = receipt.commit_code.commit
    assert commit.commit_g == (group.generator ** response) * (public_credential.c1 ** envelope.challenge)
    assert commit.commit_h == (authority_key ** response) * (value_h ** envelope.challenge)


@pytest.mark.parametrize("group_factory", [testing_group, ed25519_group], ids=["toy", "ed25519"])
def test_a_session_without_a_witness_still_issues_a_verifying_fake(group_factory):
    """In-booth delegation: the kiosk holds no ``real_secret``; the simulator falls back to the statement."""
    setup = _setup(group_factory)
    session = RegistrationSession(setup=setup)
    kiosk_session = session.kiosk.authorize(session.official.check_in("alice"))
    delegation = delegate_in_booth(session.kiosk, kiosk_session, schnorr_keygen(setup.group).public)
    assert kiosk_session.real_secret is None and kiosk_session.encryption_randomness is None

    envelope = session.booth_envelopes[0]
    receipt = session.kiosk.create_fake_credential(kiosk_session, envelope)
    session.official.check_out_ticket(delegation.check_out_ticket)
    credential = PaperCredential(receipt, envelope, is_real=False).insert_for_transport()
    report = _device(setup).activate(credential)
    assert report.success, report.failed_check


# ------------------------------------------------------------------ the verdicts


def _bump(signature: SchnorrSignature, group) -> SchnorrSignature:
    return replace(signature, response=(signature.response + 1) % group.order)


def _with(credential, *, commit_code=None, response_code=None, envelope=None) -> PaperCredential:
    receipt = credential.receipt
    receipt = replace(
        receipt,
        commit_code=commit_code or receipt.commit_code,
        response_code=response_code or receipt.response_code,
    )
    return PaperCredential(receipt, envelope or credential.envelope, is_real=False).insert_for_transport()


def _tamperings(setup, credential, other_envelope):
    """``(name, tampered credential, what the device must say)`` for every fault it can see."""
    group, kiosk_keys = setup.group, setup.registrar.kiosk_keys[0]
    commit_code, response_code, envelope = (
        credential.receipt.commit_code, credential.receipt.response_code, credential.envelope,
    )
    credential_public = group.power(response_code.credential_secret)

    bad_commit_signature = replace(commit_code, kiosk_signature=_bump(commit_code.kiosk_signature, group))
    bad_response_signature = replace(response_code, kiosk_signature=_bump(response_code.kiosk_signature, group))
    bad_printer_signature = replace(envelope, printer_signature=_bump(envelope.printer_signature, group))
    # A kiosk that signs what it prints can still print a transcript that does not verify.
    wrong_response = (response_code.zkp_response + 1) % group.order
    resigned_response = replace(
        response_code,
        zkp_response=wrong_response,
        kiosk_signature=schnorr_sign(
            kiosk_keys, response_message(credential_public, envelope.challenge, wrong_response)
        ),
    )
    wrong_commit = replace(commit_code.commit, commit_g=commit_code.commit.commit_g * group.generator)
    resigned_commit = replace(
        commit_code,
        commit=wrong_commit,
        kiosk_signature=schnorr_sign(
            kiosk_keys, commit_message(commit_code.voter_id, commit_code.public_credential, wrong_commit)
        ),
    )
    return [
        ("commit-signature", _with(credential, commit_code=bad_commit_signature),
         "kiosk signature on commit code invalid"),
        ("response-signature", _with(credential, response_code=bad_response_signature),
         "kiosk signature on response code invalid"),
        ("printer-signature", _with(credential, envelope=bad_printer_signature),
         "printer signature on envelope invalid"),
        ("zkp-response", _with(credential, response_code=resigned_response),
         "ZKP transcript failed verification"),
        ("zkp-commit", _with(credential, commit_code=resigned_commit),
         "ZKP transcript failed verification"),
        # Another envelope's challenge: the response code was signed over H(e ‖ r).
        ("swapped-envelope", _with(credential, envelope=other_envelope),
         "kiosk signature on response code invalid"),
        ("both-kiosk-signatures",
         _with(credential, commit_code=bad_commit_signature, response_code=bad_response_signature),
         "kiosk signature on commit code invalid"),
        ("printer-and-zkp", _with(credential, commit_code=resigned_commit, envelope=bad_printer_signature),
         "printer signature on envelope invalid"),
    ]


@pytest.mark.parametrize("which", ["real", "fake"])
@pytest.mark.parametrize("group_factory", GROUPS, ids=GROUP_IDS)
def test_each_tampering_is_named_by_its_check(group_factory, powers, which):
    setup = _setup(group_factory)
    voter = Voter("alice", num_fake_credentials=1)
    RegistrationSession(setup=setup).register(voter, activate=False)
    credential = voter.credentials[0 if which == "real" else 1]
    device = _device(setup)
    powers.clear()
    for name, tampered, expected in _tamperings(setup, credential, setup.envelope_supply[0]):
        report = device.activate(tampered)
        assert not report.success and report.failed_check == expected, name
    assert powers["multiexp"] == 0  # judged item by item, never folded
    assert device.credentials == []


def test_an_unauthorised_kiosk_key_is_named_first(ed25519_setup, registered):
    stranger = schnorr_keygen(ed25519_setup.group).public
    device = _device(ed25519_setup, kiosk_public_keys=[stranger])
    report = device.activate(_with(registered.credentials[0]))
    assert not report.success and report.failed_check == "kiosk key not authorized"
