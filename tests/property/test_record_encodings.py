"""Cross-encoding properties of the record model, and mutation fuzz of its decoders.

Every record has four encodings — the canonical payload, a SQLite row, the
wire values and their JSON text — all derived from one declaration.  Over the
toy group, modp-256 and ed25519:

* record → row → record and record → JSON → record are the identity;
* one ballot sequence appended in-process, posted as JSON through
  ``GatewayService`` and replayed from the reopened SQLite file ends on the
  same ``L_R`` / ``L_E`` / ``L_V`` heads;
* a truncated / bit-flipped / extended encoding decodes to the original
  record or raises the typed error — never another exception, never a
  different record with the same payload.
"""

from __future__ import annotations

import asyncio
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.registry import group_by_name
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.errors import LedgerError
from repro.gateway.schemas import (
    CastRequest,
    CreateElectionRequest,
    RecordSchema,
    RegisterRequest,
    SchemaError,
    ballot_to_wire,
)
from repro.gateway.service import GatewayService, ServiceConfig
from repro.ledger import BulletinBoard, MemoryBackend, SQLiteBackend
from repro.ledger.records import (
    RECORD_TYPES,
    BallotRecord,
    EnvelopeCommitmentRecord,
    EnvelopeUsageRecord,
    RegistrationRecord,
)

GROUP_NAMES = ["toy", "modp-256", "ed25519"]
FAST = settings(max_examples=25, deadline=None, suppress_health_check=list(HealthCheck))
FEW = settings(max_examples=4, deadline=None, suppress_health_check=list(HealthCheck))

exponents = st.integers(min_value=1, max_value=2**31)
digests = st.binary(min_size=32, max_size=32)
names = st.text(min_size=1, max_size=24)


@st.composite
def records(draw, group, election_id=None):
    """Any of the four record types, with honest (reduced) signatures."""
    element = lambda: group.power(draw(exponents))
    signer = schnorr_keygen(group, secret=draw(exponents))
    signature = lambda: schnorr_sign(signer, draw(digests), nonce=draw(exponents))
    kind = BallotRecord if election_id is not None else draw(st.sampled_from(RECORD_TYPES))
    if kind is RegistrationRecord:
        return kind(draw(names), element(), element(), element(), signature(), element(), signature())
    if kind is EnvelopeCommitmentRecord:
        return kind(element(), draw(digests), signature())
    if kind is EnvelopeUsageRecord:
        return kind(draw(st.integers(min_value=0, max_value=2**600)), draw(digests))
    return kind(element(), element(), element(), signature(), election_id or draw(names))


#: A wire schema per record type, generated exactly as ``BallotWire`` is.
WIRE_SCHEMAS = {}
for _kind in RECORD_TYPES:

    @dataclass(frozen=True)
    class _Wire(RecordSchema, record=_kind):
        pass

    WIRE_SCHEMAS[_kind] = _Wire


def heads(board):
    return [log.head().head_hash for log in (board.registration_log, board.envelope_log, board.ballot_log)]


# ------------------------------------------------------------------- round trips


@pytest.mark.parametrize("group_name", GROUP_NAMES)
@FAST
@given(data=st.data())
def test_row_and_json_round_trips_are_the_identity(group_name, data):
    group = group_by_name(group_name)
    record = data.draw(records(group))
    kind = type(record)
    assert kind.from_row(group, record.to_row()) == record
    schema = WIRE_SCHEMAS[kind]
    text = schema.from_record(record).to_json()
    decoded = schema.from_json(text).to_record(group, "record")
    assert decoded == record and decoded.payload() == record.payload()
    # The JSON text itself is canonical: re-encoding reproduces it.
    assert schema.from_record(decoded).to_json() == text


# -------------------------------------------------- three routes to the same heads


async def serve_and_cast(group_name, path, bodies):
    """Setup + one registration + the casts, through the service on a SQLite board."""
    service = GatewayService(ServiceConfig(group_name=group_name, board_spec=f"sqlite:{path}"))
    await service.create_election(CreateElectionRequest("prop", 2, 2))
    await service.register("prop", RegisterRequest("voter-0000"))
    for body in bodies:
        request = CastRequest.from_json(body)
        assert isinstance(request, CastRequest)
        await service.cast("prop", "client", request)
    await service.close_election("prop")
    board = service.tenants["prop"].setup.board
    other_records = (
        list(board.backend.envelope_commitments().values())
        + board.backend.registration_records()
        + list(board.backend.used_challenges().values())
    )
    outcome = heads(board), board.eligible_voters, other_records
    await service.shutdown()
    return outcome


@pytest.mark.parametrize("group_name", GROUP_NAMES)
@FEW
@given(data=st.data())
def test_in_process_gateway_and_reopened_sqlite_agree_on_every_head(group_name, data):
    group = group_by_name(group_name)
    ballots = data.draw(st.lists(records(group, election_id="prop"), min_size=1, max_size=6))
    split = data.draw(st.integers(min_value=0, max_value=len(ballots)))
    bodies = [
        CastRequest(ballots=[ballot_to_wire(ballot) for ballot in batch]).to_json()
        for batch in (ballots[:split], ballots[split:])
        if batch
    ]
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "board.db"
        served, roll, other_records = asyncio.run(serve_and_cast(group_name, path, bodies))
        reopened = SQLiteBackend(str(path), group=group)
        replayed = heads(reopened)
        assert reopened.read_ballots().records == ballots
        reopened.close()
    in_process = BulletinBoard(MemoryBackend())
    in_process.publish_electoral_roll(roll)
    for record in other_records:
        in_process.backend.append(record)
    in_process.post_ballots(ballots)
    assert served == replayed == heads(in_process)


# ---------------------------------------------------------------- mutation fuzz


def mutate(data, blob):
    """Truncate, flip one bit of, or extend a byte string."""
    how = data.draw(st.sampled_from(["truncate", "flip", "extend"]))
    if how == "truncate":
        return blob[: data.draw(st.integers(min_value=0, max_value=max(0, len(blob) - 1)))]
    if how == "extend":
        return blob + data.draw(st.binary(min_size=1, max_size=3))
    if not blob:
        return b"\x01"
    index = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
    return blob[:index] + bytes([blob[index] ^ (1 << data.draw(st.integers(0, 7)))]) + blob[index + 1 :]


def same_or_distinguishable(decoded, record):
    """A decoder that accepts a mutant may only have produced the original
    record, or one the hash chain tells apart from it."""
    assert decoded == record or decoded.payload() != record.payload()


@pytest.mark.parametrize("group_name", GROUP_NAMES)
@FAST
@given(data=st.data())
def test_mutated_rows_decode_to_the_record_or_a_ledger_error(group_name, data):
    group = group_by_name(group_name)
    record = data.draw(records(group))
    row = list(record.to_row())
    column = data.draw(st.integers(min_value=0, max_value=len(row) - 1))
    value = row[column]
    row[column] = (
        mutate(data, value) if isinstance(value, bytes)
        else data.draw(st.one_of(st.text(max_size=8), st.binary(max_size=8), st.none(), st.integers()))
    )
    try:
        decoded = type(record).from_row(group, row)
    except LedgerError:
        return
    same_or_distinguishable(decoded, record)


@pytest.mark.parametrize("group_name", GROUP_NAMES)
@FAST
@given(data=st.data())
def test_mutated_json_decodes_to_the_record_or_a_schema_error(group_name, data):
    group = group_by_name(group_name)
    record = data.draw(records(group))
    schema = WIRE_SCHEMAS[type(record)]
    body = json.loads(schema.from_record(record).to_json())
    member = data.draw(st.sampled_from(sorted(set(body) - {"schema_version"})))
    mutant = mutate(data, body[member].encode()).decode(errors="replace")
    if data.draw(st.booleans()):
        mutant = data.draw(st.sampled_from([mutant.upper(), " " + mutant, "0" + mutant, mutant + "\n"]))
    body[member] = mutant
    try:
        decoded = schema.from_json(json.dumps(body)).to_record(group, "record")
    except SchemaError:
        return
    same_or_distinguishable(decoded, record)
