"""Schema layer: strict round-trips and the rejection matrix."""

from __future__ import annotations

import json

import pytest

from repro.crypto.schnorr import schnorr_keygen
from repro.gateway.schemas import (
    MAX_CAST_BATCH,
    SCHEMA_VERSION,
    AuditReportWire,
    BallotWire,
    CastRequest,
    CreateElectionRequest,
    CredentialWire,
    ElectionInfo,
    ErrorBody,
    HealthResponse,
    RegisterRequest,
    RegisterResponse,
    SchemaError,
    TallyResponse,
    schema_catalog,
    schema_markdown,
)
from repro.voting.ballot import make_ballot


def wire_ballot(group, election_id="default", choice=1):
    dkg_key = schnorr_keygen(group)
    credential = schnorr_keygen(group)
    ballot = make_ballot(group, dkg_key.public, credential, choice, 2, election_id=election_id)
    return BallotWire.from_record(ballot.to_record())


# ------------------------------------------------------------------ round trips


def test_every_schema_is_registered():
    catalog = schema_catalog()
    for name in (
        "ErrorBody",
        "CreateElectionRequest",
        "ElectionInfo",
        "RegisterRequest",
        "CredentialWire",
        "RegisterResponse",
        "BallotWire",
        "CastRequest",
        "CastResponse",
        "TallyResponse",
        "AuditReportWire",
        "HealthResponse",
        "AuditStreamEvent",
    ):
        assert name in catalog
        assert schema_markdown(catalog[name]).startswith(f"### `{name}`")


def test_create_election_round_trip():
    original = CreateElectionRequest(
        election_id="demo", num_voters=10, num_options=3, num_authority_members=5, group="toy"
    )
    decoded = CreateElectionRequest.from_json(original.to_json())
    assert decoded == original
    assert json.loads(original.to_json())["schema_version"] == SCHEMA_VERSION


def test_optional_fields_omitted_on_wire():
    request = CreateElectionRequest(election_id="demo", num_voters=1, num_options=2)
    data = json.loads(request.to_json())
    assert "num_authority_members" not in data
    assert "group" not in data
    assert CreateElectionRequest.from_json_dict(data) == request


def test_ballot_wire_round_trip(group):
    wire = wire_ballot(group)
    decoded = BallotWire.from_json(wire.to_json())
    assert decoded == wire
    record = decoded.to_record(group, "ballot")
    assert BallotWire.from_record(record) == wire


def test_register_response_nested_round_trip():
    response = RegisterResponse(
        voter_id="alice",
        ledger_seq=4,
        credentials=[
            CredentialWire(voter_id="alice", secret_key=1234, public_key=b"\x01\x02", is_real=True),
            CredentialWire(voter_id="alice", secret_key=77, public_key=b"\x03", is_real=False),
        ],
    )
    decoded = RegisterResponse.from_json(response.to_json())
    assert decoded == response
    # Scalars travel as decimal strings so non-bignum parsers survive them.
    assert json.loads(response.to_json())["credentials"][0]["secret_key"] == "1234"


def test_tally_and_audit_round_trip():
    tally = TallyResponse(
        election_id="demo",
        counts={"0": 3, "1": 7},
        turnout=10,
        num_ballots_on_ledger=11,
        num_valid_ballots=11,
        num_counted=10,
        num_discarded=1,
        winner=1,
    )
    assert TallyResponse.from_json(tally.to_json()) == tally
    report = AuditReportWire(
        election_id="demo",
        ok=False,
        strategy="batched",
        num_checks=12,
        num_failed=1,
        fingerprint="ab" * 16,
        elapsed_seconds=0.25,
        failures=["chain:ballot-log"],
    )
    assert AuditReportWire.from_json(report.to_json()) == report


# ------------------------------------------------------------ rejection matrix


def expect_errors(schema, data, *paths):
    with pytest.raises(SchemaError) as excinfo:
        schema.from_json_dict(data)
    for path in paths:
        assert path in excinfo.value.field_errors, excinfo.value.field_errors
    return excinfo.value.field_errors


def test_rejects_non_object_body():
    expect_errors(RegisterRequest, [1, 2, 3], "$body")
    for text in (b"{not json", b"[" * 100_000):  # the second nests past the parser's stack
        with pytest.raises(SchemaError) as excinfo:
            RegisterRequest.from_json(text)
        assert "$body" in excinfo.value.field_errors


def test_rejects_unknown_fields():
    expect_errors(RegisterRequest, {"voter_id": "alice", "voterid": "typo"}, "voterid")


def test_rejects_missing_required_fields():
    errors = expect_errors(CreateElectionRequest, {"election_id": "x"}, "num_voters", "num_options")
    assert errors["num_voters"] == "required field is missing"


def test_rejects_schema_version_mismatch():
    expect_errors(
        RegisterRequest, {"voter_id": "alice", "schema_version": 99}, "schema_version"
    )
    # The correct version is accepted when pinned explicitly.
    decoded = RegisterRequest.from_json_dict(
        {"voter_id": "alice", "schema_version": SCHEMA_VERSION}
    )
    assert decoded.voter_id == "alice"


def test_rejects_wrong_primitive_types():
    expect_errors(RegisterRequest, {"voter_id": 5}, "voter_id")
    expect_errors(
        CreateElectionRequest,
        {"election_id": "x", "num_voters": "ten", "num_options": 2},
        "num_voters",
    )
    # Booleans are not integers on this wire.
    expect_errors(
        CreateElectionRequest,
        {"election_id": "x", "num_voters": True, "num_options": 2},
        "num_voters",
    )


def test_rejects_out_of_range_ints():
    expect_errors(
        CreateElectionRequest,
        {"election_id": "x", "num_voters": 0, "num_options": 2},
        "num_voters",
    )
    expect_errors(
        CreateElectionRequest,
        {"election_id": "x", "num_voters": 5, "num_options": 100},
        "num_options",
    )


def test_rejects_bad_hex_and_scalar_with_indexed_paths(group):
    wire = json.loads(wire_ballot(group).to_json())
    bad = dict(wire)
    bad["ciphertext_c1"] = "zz-not-hex"
    expect_errors(CastRequest, {"ballots": [wire, bad]}, "ballots[1].ciphertext_c1")
    bad_scalar = dict(wire)
    bad_scalar["signature_response"] = "-5"
    expect_errors(CastRequest, {"ballots": [bad_scalar]}, "ballots[0].signature_response")


def test_rejects_empty_and_oversized_cast_batches(group):
    expect_errors(CastRequest, {"ballots": []}, "ballots")
    wire = json.loads(wire_ballot(group).to_json())
    expect_errors(CastRequest, {"ballots": [wire] * (MAX_CAST_BATCH + 1)}, "ballots")


def test_rejects_corrupt_group_element_bytes(group):
    wire = wire_ballot(group)
    corrupt = BallotWire(
        credential_public_key=b"\xff" * 64,
        ciphertext_c1=wire.ciphertext_c1,
        ciphertext_c2=wire.ciphertext_c2,
        signature_commitment=wire.signature_commitment,
        signature_response=wire.signature_response,
        election_id=wire.election_id,
    )
    with pytest.raises(SchemaError) as excinfo:
        corrupt.to_record(group, path="ballots[3]")
    assert "ballots[3].credential_public_key" in excinfo.value.field_errors


def test_error_body_round_trip_with_field_errors():
    body = ErrorBody(
        error="request failed validation",
        field_errors={"ballots[0].ciphertext_c1": "not valid hex"},
        retry_after_seconds=0.5,
    )
    assert ErrorBody.from_json(body.to_json()) == body


def test_health_rejects_extra_and_wrong_types():
    expect_errors(
        HealthResponse,
        {"status": "ok", "elections": 1, "uptime_seconds": "soon"},
        "uptime_seconds",
    )
    expect_errors(
        ElectionInfo,
        {"election_id": "x"},
        "status",
        "generator",
        "authority_public_key",
    )
