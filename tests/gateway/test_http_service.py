"""End-to-end elections over HTTP only, plus the ledger bit-identity proof."""

from __future__ import annotations

import threading
import time

import pytest

from repro.gateway.client import GatewayClient, GatewayClientError, RateLimited
from repro.gateway.governor import GovernorConfig
from repro.gateway.schemas import ballot_from_wire, ballot_to_wire
from repro.gateway.service import ServiceConfig
from repro.ledger.bulletin_board import BulletinBoard
from repro.ledger.records import BallotRecord


def test_full_election_over_http_only(gateway):
    """Register, cast, close, tally and audit an election through the SDK."""
    from repro.gateway.client import CastingSession

    client = gateway.client(client_id="e2e")
    info = client.create_election("http-e2e", 6, 3)
    assert info.status == "open"
    assert info.group == "toy"

    session = CastingSession(client, "http-e2e")
    session.refresh()
    voters = [f"voter-{index:04d}" for index in range(4)]
    for voter_id in voters:
        response = session.register(voter_id)
        assert response.voter_id == voter_id
        real = [credential for credential in response.credentials if credential.is_real]
        fakes = [credential for credential in response.credentials if not credential.is_real]
        assert len(real) == 1
        assert len(fakes) >= 1

    choices = {voters[0]: 2, voters[1]: 1, voters[2]: 2, voters[3]: 2}
    cast = session.cast([(session.real_credential(v), c) for v, c in choices.items()])
    assert cast.ledger_seqs == sorted(cast.ledger_seqs)
    assert len(cast.ledger_seqs) == 4

    info = client.info("http-e2e")
    assert info.num_registered == 4

    closed = client.close_election("http-e2e")
    assert closed.status == "closed"
    assert closed.num_ballots == 4
    assert closed.pending_casts == 0

    tally = client.tally("http-e2e")
    assert tally.counts == {"0": 0, "1": 1, "2": 3}
    assert tally.winner == 2
    assert tally.num_discarded == 0

    report = client.audit_report("http-e2e")
    assert report.ok
    assert report.num_failed == 0
    assert len(report.fingerprint) == 64
    # Cached: a second read returns the identical fingerprint.
    assert client.audit_report("http-e2e").fingerprint == report.fingerprint

    assert client.info("http-e2e").status == "tallied"
    client.close()


def test_gateway_audit_pins_the_service_mix_parameters(make_gateway):
    """The tenant's audit pins the cascades to *its* ``num_mixers`` / ``proof_rounds``.

    Neither value is an ``ElectionConfig`` default, so an audit that pinned
    anything but the service's own parameters rejects this honest election
    at ``registration-mix.stages``.
    """
    from repro.gateway.client import CastingSession

    fixture = make_gateway(
        ServiceConfig(num_mixers=3, proof_rounds=1, governor=GovernorConfig.from_env())
    )
    client = fixture.client(client_id="pins")
    client.create_election("pinned", 3, 2)
    session = CastingSession(client, "pinned")
    session.refresh()
    voters = [f"voter-{index:04d}" for index in range(3)]
    for voter_id in voters:
        session.register(voter_id)
    session.cast([(session.real_credential(voter_id), 1) for voter_id in voters])
    client.close_election("pinned")
    assert client.tally("pinned").counts == {"0": 0, "1": 3}
    report = client.audit_report("pinned")
    assert report.ok, report.failures
    tenant = fixture.service.tenants["pinned"]
    assert len(tenant.tally_result.ballot_cascade.stages) == 3
    assert all(len(stage.rounds) == 1 for stage in tenant.tally_result.ballot_cascade.stages)
    client.close()


@pytest.mark.parametrize("connections", [1, 4])
@pytest.mark.parametrize("batch_size", [1, 2, 64])
def test_concurrent_http_casts_match_in_process_chain(make_gateway, group, batch_size, connections):
    """The HTTP-cast ballot chain is byte-identical to in-process appends.

    Client connections cast concurrently — one-ballot requests, then one
    two-ballot request each — at board flush sizes where every append, every
    other append and no append trips a flush.  Receipts are unique and
    contiguous, each is its ballot's ledger position, and replaying the
    ledger's records in ledger order through a plain in-process board must
    produce the same hash chain head.
    """
    from repro.gateway.client import CastingSession

    fixture = make_gateway(ServiceConfig(governor=GovernorConfig(batch_size=batch_size)))
    client = fixture.client(client_id="main")
    client.create_election("identity", 12, 2)
    session = CastingSession(client, "identity")
    session.refresh()
    credentials = [session.register(f"voter-{i:04d}").credentials[0] for i in range(12)]
    wires = [session.make_ballot_wire(credential, i % 2) for i, credential in enumerate(credentials)]

    errors = []
    receipts = {}  # index into ``wires`` -> ledger sequence number

    def cast_worker(worker_index: int) -> None:
        worker = GatewayClient(port=fixture.port, client_id=f"worker-{worker_index}")
        try:
            mine = list(range(worker_index, len(wires), connections))
            requests = [[index] for index in mine[:-2]] + [mine[-2:]]
            for indices in requests:
                seqs = worker.cast_ballots("identity", [wires[i] for i in indices]).ledger_seqs
                # A request's ballots are contiguous on the ledger.
                assert seqs == list(range(seqs[0], seqs[0] + len(indices)))
                receipts.update(zip(indices, seqs))
        except Exception as error:  # surfaced below; pytest needs the main thread
            errors.append(error)
        finally:
            worker.close()

    threads = [threading.Thread(target=cast_worker, args=(index,)) for index in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert errors == []

    client.close_election("identity")

    tenant = fixture.service.tenants["identity"]
    http_board = tenant.setup.board
    assert http_board.count(BallotRecord) == 12
    assert tenant.governor.queued == 0

    # Every receipt is the ballot's ledger position; together they are 0..11.
    records = http_board.read(BallotRecord, key="identity").records
    assert sorted(receipts.values()) == list(range(12))
    for index, seq in receipts.items():
        assert records[seq] == ballot_from_wire(group, wires[index])

    # Replay the HTTP-cast records, in ledger order, through a fresh
    # in-process board: the chains must match byte for byte.
    replay_board = BulletinBoard()
    replay_board.append_many(records)
    http_head = http_board.ballot_log.head()
    replay_head = replay_board.ballot_log.head()
    assert http_head.head_hash == replay_head.head_hash
    assert http_head.size == replay_head.size

    # And the wire encoding itself is lossless: decode(encode(record)) is
    # the identical record, so the wire hop cannot have changed payloads.
    for record in records:
        assert ballot_from_wire(group, ballot_to_wire(record)) == record
    client.close()


def test_healthz_answers_while_a_flush_is_running(make_gateway, monkeypatch):
    """The event loop never runs a flush: ``/healthz`` answers during one."""
    from repro.gateway.client import CastingSession
    from repro.ledger.backends.memory import MemoryBackend

    flushing = threading.Event()

    class SlowBackend(MemoryBackend):
        def flush(self):
            if self.count(BallotRecord):  # the cast's flush, not setup's or registration's
                flushing.set()
                time.sleep(0.05)
            super().flush()

    # The tenant's board is ``batched:1:memory``; make its flushes slow.
    monkeypatch.setattr("repro.ledger.backends.memory.MemoryBackend", SlowBackend)
    # batch_size=1: every cast's append trips the board's flush.
    fixture = make_gateway(ServiceConfig(governor=GovernorConfig(batch_size=1)))
    client = fixture.client(client_id="caster")
    client.create_election("slow", 2, 2)
    session = CastingSession(client, "slow")
    session.refresh()
    wire = session.make_ballot_wire(session.register("voter-0000").credentials[0], 1)
    probe = fixture.client(client_id="probe")
    probe.health()  # connect before anything is timed

    outcome = []
    caster = threading.Thread(target=lambda: outcome.append(client.cast_ballots("slow", [wire])))
    caster.start()
    assert flushing.wait(timeout=30)
    started = time.perf_counter()
    health = probe.health()
    elapsed = time.perf_counter() - started
    caster.join(timeout=30)

    assert health.status == "ok"
    assert elapsed < 0.025, f"/healthz took {elapsed * 1e3:.1f} ms during a 50 ms flush"
    assert outcome and outcome[0].ledger_seqs == [0]
    probe.close()
    client.close()


def test_error_mapping_404_405_400_409(gateway):
    client = gateway.client()
    with pytest.raises(GatewayClientError) as excinfo:
        client.info("missing")
    assert excinfo.value.status == 404

    status, _ = client._raw_request("GET", "/healthz", None)
    assert status == 200
    with pytest.raises(GatewayClientError) as excinfo:
        client._raw_request("DELETE", "/healthz", None)
    assert excinfo.value.status == 405
    with pytest.raises(GatewayClientError) as excinfo:
        client._raw_request("GET", "/nope", None)
    assert excinfo.value.status == 404

    client.create_election("errors", 2, 2)
    with pytest.raises(GatewayClientError) as excinfo:
        client.create_election("errors", 2, 2)
    assert excinfo.value.status == 409

    with pytest.raises(GatewayClientError) as excinfo:
        client.register("errors", "nobody-on-the-roll")
    assert excinfo.value.status == 400
    assert "voter_id" in excinfo.value.field_errors

    # Tallying an open election is a status conflict.
    with pytest.raises(GatewayClientError) as excinfo:
        client.tally("errors")
    assert excinfo.value.status == 409
    client.close()


def test_validation_errors_carry_field_paths(gateway):
    client = gateway.client()
    client.create_election("fields", 2, 2)
    import json

    from repro.gateway.schemas import CastRequest

    class RawBody:
        def __init__(self, payload: str) -> None:
            self._payload = payload

        def to_json(self) -> str:
            return self._payload

    bad = json.dumps({"ballots": [{"credential_public_key": "zz"}]})
    with pytest.raises(GatewayClientError) as excinfo:
        client._raw_request("POST", "/v1/elections/fields/ballots", RawBody(bad))
    assert excinfo.value.status == 400
    assert "ballots[0].credential_public_key" in excinfo.value.field_errors
    assert "ballots[0].ciphertext_c1" in excinfo.value.field_errors
    assert CastRequest  # imported to show intent: the server validated CastRequest
    client.close()


def test_burst_casting_sheds_with_retry_after(make_gateway, group):
    """A burst beyond the client bucket gets 429 + a positive Retry-After."""
    from repro.gateway.client import CastingSession

    fixture = make_gateway(
        ServiceConfig(
            governor=GovernorConfig(
                tenant_rate=1e9,
                tenant_burst=1e9,
                client_rate=1.0,
                client_burst=4.0,
                batch_size=4,
            )
        )
    )
    client = fixture.client(client_id="bursty")
    client.create_election("shed", 8, 2)
    session = CastingSession(client, "shed")
    session.refresh()
    credentials = [session.register(f"voter-{i:04d}").credentials[0] for i in range(6)]
    wires = [session.make_ballot_wire(credential, 0) for credential in credentials]

    accepted = 0
    shed = None
    for wire in wires:
        try:
            client.cast_ballots("shed", [wire])
            accepted += 1
        except RateLimited as error:
            shed = error
            break
    assert accepted == 4
    assert shed is not None
    assert shed.status == 429
    assert shed.retry_after_seconds > 0.0
    # The governor counted what it shed.
    _, admitted, shed_count = fixture.service.tenants["shed"].governor.snapshot()
    assert admitted == 4
    assert shed_count >= 1
    client.close()


def test_casting_on_closed_election_conflicts(gateway):
    from repro.gateway.client import CastingSession

    client = gateway.client()
    client.create_election("closed-cast", 2, 2)
    session = CastingSession(client, "closed-cast")
    session.refresh()
    credential = session.register("voter-0000").credentials[0]
    wire = session.make_ballot_wire(credential, 1)
    client.close_election("closed-cast")
    with pytest.raises(GatewayClientError) as excinfo:
        client.cast_ballots("closed-cast", [wire])
    assert excinfo.value.status == 409
    client.close()


def test_metrics_exposes_gateway_series(gateway):
    import repro.telemetry as telemetry

    telemetry.configure("mem")
    client = gateway.client()
    client.create_election("metrics", 2, 2)
    text = client.metrics()
    assert "gateway" in text
    client.close()
