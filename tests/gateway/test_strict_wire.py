"""One accepted spelling per value, and a handler failure never costs the connection.

Socket-level: every request here goes over a real keep-alive connection, and
the same connection must serve ``/healthz`` afterwards.  Before these fixes a
malformed scalar raised out of the dispatcher, killed the connection task
("Unhandled exception in client_connected_cb") and the client saw a reset;
the ``gateway`` fixture now also fails any test that leaves such an exception
behind on the server loop.
"""

from __future__ import annotations

import http.client
import json
import logging

import pytest

from repro import telemetry
from repro.crypto.encoding import element_width
from repro.crypto.registry import group_by_name
from repro.crypto.schnorr import schnorr_keygen
from repro.errors import ProtocolError
from repro.gateway.client import CastingSession, GatewayClient
from repro.gateway.schemas import BallotWire, CastRequest, CredentialWire, ElectionInfo, SchemaError


@pytest.fixture()
def election(gateway):
    """An open election with one registered voter and a valid wire ballot."""
    client = gateway.client(client_id="strict")
    client.create_election("strict", 4, 2)
    session = CastingSession(client, "strict")
    session.refresh()
    credential = session.register("voter-0000").credentials[0]
    wire = session.make_ballot_wire(credential, 1)
    yield gateway, json.loads(wire.to_json())
    client.close()


def post_ballots(connection, ballots):
    connection.request(
        "POST",
        "/v1/elections/strict/ballots",
        body=json.dumps({"ballots": ballots}),
        headers={"Content-Type": "application/json"},
    )
    response = connection.getresponse()
    return response.status, json.loads(response.read())


def assert_connection_still_serves(connection):
    connection.request("GET", "/healthz")
    response = connection.getresponse()
    assert response.status == 200
    assert json.loads(response.read())["status"] == "ok"


@pytest.mark.parametrize(
    "scalar",
    ["²", "9" * 5000, "007", "٣", "-5", "+5", " 5", "5 ", "1_0", "", "0x10", 5],
    ids=["superscript", "5000-digits", "leading-zeros", "arabic-indic", "negative", "plus",
         "leading-space", "trailing-space", "underscore", "empty", "hex", "json-number"],
)
def test_non_canonical_scalar_is_a_400_and_the_connection_survives(election, scalar):
    gateway, ballot = election
    connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    try:
        status, body = post_ballots(connection, [ballot, dict(ballot, signature_response=scalar)])
        assert status == 400
        assert list(body["field_errors"]) == ["ballots[1].signature_response"]
        assert_connection_still_serves(connection)
    finally:
        connection.close()


@pytest.mark.parametrize(
    "spelling",
    [str.upper, lambda text: text[:2] + " " + text[2:], lambda text: text + "\n"],
    ids=["upper-case", "inner-space", "trailing-newline"],
)
def test_only_lowercase_whitespace_free_hex_is_accepted(election, spelling):
    gateway, ballot = election
    bad = dict(ballot, ciphertext_c1=spelling(ballot["ciphertext_c1"]))
    if bad == ballot:  # an all-digit hex string has no upper case
        pytest.skip("hex value has no letters")
    connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    try:
        status, body = post_ballots(connection, [bad])
        assert status == 400
        assert list(body["field_errors"]) == ["ballots[0].ciphertext_c1"]
        assert_connection_still_serves(connection)
    finally:
        connection.close()


def test_second_encodings_of_a_ballot_are_refused_naming_the_field(election, group):
    """``s + q`` verifies like ``s`` but hashes to a different ledger payload;
    a short element is the same integer in fewer bytes."""
    gateway, ballot = election
    aliased = dict(ballot, signature_response=str(int(ballot["signature_response"]) + group.order))
    short = dict(ballot, credential_public_key="ab")
    connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    try:
        status, body = post_ballots(connection, [ballot, aliased, short])
        assert status == 400
        assert "ballots[1].signature_response" in body["field_errors"]
        assert_connection_still_serves(connection)
        status, body = post_ballots(connection, [short])
        assert status == 400
        assert list(body["field_errors"]) == ["ballots[0].credential_public_key"]
        # Nothing above was admitted; the honest ballot still is.
        status, body = post_ballots(connection, [ballot])
        assert status == 200 and body["ledger_seqs"] == [0]
    finally:
        connection.close()


def test_ballot_from_wire_names_path_and_member(election, group):
    _, ballot = election
    request = CastRequest.from_json_dict({"ballots": [ballot]})
    wire = request.ballots[0]
    assert isinstance(wire, BallotWire)
    values = {spec.name: getattr(wire, spec.name) for spec in BallotWire.FIELDS}
    for member, bad in [
        ("signature_response", wire.signature_response + group.order),
        ("signature_commitment", wire.signature_commitment[:-1]),
        ("ciphertext_c2", wire.ciphertext_c2 + b"\x00"),
    ]:
        with pytest.raises(SchemaError) as excinfo:
            BallotWire(**dict(values, **{member: bad})).to_record(group, path="ballots[7]")
        assert list(excinfo.value.field_errors) == [f"ballots[7].{member}"]


def test_a_raising_handler_is_a_500_and_the_connection_survives(gateway, monkeypatch):
    def broken_metrics():
        raise RuntimeError("handler bug")

    monkeypatch.setattr(gateway.service, "metrics", broken_metrics)
    telemetry.configure("mem", propagate=False)
    connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    try:
        connection.request("GET", "/metrics")
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 500
        assert "RuntimeError" in body["error"] and "handler bug" not in body["error"]
        assert_connection_still_serves(connection)
        assert telemetry.snapshot().counter_total("gateway.errors") == 1
    finally:
        connection.close()
        telemetry.configure("off")


def test_an_unmapped_error_leaves_its_traceback_in_one_log_record(gateway, monkeypatch, caplog):
    """The body says ``internal error (<Type>)``; the frame that raised is in the log, once."""

    def metrics_that_break_protocol():
        raise ProtocolError("respond() called before commit(): unsound order")

    monkeypatch.setattr(gateway.service, "metrics", metrics_that_break_protocol)
    telemetry.configure("mem", propagate=False)
    connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    try:
        with caplog.at_level(logging.ERROR, logger="repro.gateway.routes"):
            connection.request("GET", "/metrics")
            response = connection.getresponse()
            body = json.loads(response.read())
        assert response.status == 500 and body["error"] == "internal error (ProtocolError)"
        assert_connection_still_serves(connection)

        (record,) = [r for r in caplog.records if r.name == "repro.gateway.routes"]
        assert record.exc_info is not None and record.exc_info[0] is ProtocolError
        traceback_text = logging.Formatter().formatException(record.exc_info)
        assert "metrics_that_break_protocol" in traceback_text and "unsound order" in traceback_text
        # The request's trace: minted by the dispatcher, on the record and in its message.
        assert len(record.trace_id) == 32 and record.trace_id in record.getMessage()
        assert telemetry.snapshot().counter_total("gateway.errors", type="ProtocolError") == 1
    finally:
        connection.close()
        telemetry.configure("off")


#: ``(member, rewrite)``: a hostile value the server could send the SDK.
HOSTILE_SDK_INPUTS = [
    ("secret_key", lambda group, value, off_group: group.order),
    ("public_key", lambda group, value, off_group: b"\x00" + value),
    ("public_key", lambda group, value, off_group: off_group),
    ("authority_public_key", lambda group, value, off_group: value[:-1]),
    ("authority_public_key", lambda group, value, off_group: off_group),
]
#: An encoding of the right width that is no element: zero is outside the
#: field mod p, and the curve's (0, -1) has order two.
OFF_GROUP = {"toy": bytes(element_width(group_by_name("toy"))), "ed25519": bytes.fromhex("ec" + "ff" * 30 + "7f")}


@pytest.mark.parametrize("group_name", sorted(OFF_GROUP))
@pytest.mark.parametrize(
    "member, rewrite", HOSTILE_SDK_INPUTS, ids=["q", "wide", "off-group", "short", "authority-off-group"]
)
def test_the_sdk_reads_keys_from_the_server_strictly(group_name, member, rewrite):
    """A credential or election key the SDK would sign or encrypt with is read
    by its kind's reader, and a refusal is a SchemaError naming the member."""
    group = group_by_name(group_name)
    key = schnorr_keygen(group)
    values = {"secret_key": key.secret, "public_key": key.public.to_bytes()}
    values["authority_public_key"] = group.power(5).to_bytes()
    session = CastingSession(GatewayClient(), "offline", _group=group)

    def ballot():
        session.info = ElectionInfo(
            "offline", "open", group_name, group.generator.to_bytes(), values["authority_public_key"], 2, 1, 1, 0, 0
        )
        credential = CredentialWire("voter-0000", values["secret_key"], values["public_key"], True)
        return session.make_ballot_wire(credential, 1)

    assert ballot().credential_public_key == key.public.to_bytes()
    values[member] = rewrite(group, values[member], OFF_GROUP[group_name])
    with pytest.raises(SchemaError) as refused:
        ballot()
    assert list(refused.value.field_errors) == [member]


def test_an_election_id_holding_a_lone_surrogate_is_a_400_naming_it(gateway):
    """JSON can spell ``"e\\ud800"``, UTF-8 cannot: no ballot of such a tenant
    could be signed, so the tenant is never made."""
    connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    try:
        connection.request(
            "POST",
            "/v1/elections",
            body=json.dumps({"election_id": "e\ud800", "num_voters": 2, "num_options": 2}),
            headers={"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        body = json.loads(response.read())
        assert response.status == 400
        assert list(body["field_errors"]) == ["election_id"]
        assert "surrogate" in body["field_errors"]["election_id"]
        assert "e\ud800" not in gateway.service.tenants
        assert_connection_still_serves(connection)
    finally:
        connection.close()
