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
from repro.errors import ProtocolError
from repro.gateway.client import CastingSession
from repro.gateway.schemas import BallotWire, CastRequest, SchemaError, ballot_from_wire


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
            ballot_from_wire(group, BallotWire(**dict(values, **{member: bad})), path="ballots[7]")
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
