"""A tenant is a ``VotegralElection`` behind a governor.

What the service runs is the pipeline the in-process driver runs: the same
shape publishes the same election either way, the election's executor and
board are released on shutdown, a registration's ledger sequence number
comes from the append and not from a scan, and a registration is durable
before its response.
"""

from __future__ import annotations

import sqlite3

import pytest

from repro import telemetry
from repro.election import ElectionConfig, VotegralElection
from repro.gateway.client import CastingSession
from repro.gateway.governor import GovernorConfig
from repro.gateway.schemas import CreateElectionRequest
from repro.gateway.service import ServiceConfig
from repro.ledger.log import AppendOnlyLog

VOTERS = [f"voter-{index:04d}" for index in range(3)]
CHOICES = dict(zip(VOTERS, (1, 0, 1)))


@pytest.mark.parametrize(
    "board_spec, mapped",
    [
        ("memory", "batched:7:memory"),
        ("sqlite:/tmp/a:b.db", "batched:7:sqlite:/tmp/a:b.db"),
        ("batched:3:memory", "batched:3:memory"),
        ("Batched", "Batched"),
    ],
)
def test_one_mapping_from_service_and_request_to_election_config(board_spec, mapped):
    """Every tenant board is batched once: wrapped at the governor's size unless it already is."""
    service = ServiceConfig(
        board_spec=board_spec, executor_spec="serial", audit_spec="batched:4",
        num_mixers=3, proof_rounds=5, governor=GovernorConfig(batch_size=7),
    )
    request = CreateElectionRequest(election_id="mapped", num_voters=12345, num_options=4, group="modp-256")
    config = service.election_config(request, request.group)
    assert config.board_spec == mapped
    assert (config.executor_spec, config.audit_spec) == ("serial", "batched:4")
    assert (config.num_mixers, config.proof_rounds, config.num_authority_members) == (3, 5, 3)
    assert (config.election_id, config.num_voters, config.num_options) == ("mapped", 12345, 4)
    assert config.voter_ids()[-1] == "voter-12344"
    assert config.make_group().name == "modp-256"


def test_the_same_shape_in_process_and_over_http_publishes_the_same_election(make_gateway):
    """Counts, ledger sizes and the audit plan agree: the tenant's plan *is* the election's."""
    governor = GovernorConfig.from_env()
    with VotegralElection(
        ElectionConfig(
            num_voters=3, num_options=2, num_mixers=2, proof_rounds=2,
            num_authority_members=3, election_id="shape",
            board_spec=f"batched:{governor.batch_size}:memory",  # a tenant's board
        )
    ) as election:
        election.run_setup()
        election.run_registration()
        election.run_voting(dict(CHOICES), fake_vote_probability=0.0)
        result = election.run_tally()
        local = election.audit_report
        board = election.setup.board
        local_sizes = (board.num_registered, board.num_ballots)

    fixture = make_gateway(ServiceConfig(num_mixers=2, proof_rounds=2, governor=governor))
    client = fixture.client(client_id="shape")
    client.create_election("shape", 3, 2, 3, "toy")
    session = CastingSession(client, "shape")
    session.refresh()
    for voter_id in VOTERS:
        session.register(voter_id)
    session.cast([(session.real_credential(voter_id), choice) for voter_id, choice in CHOICES.items()])
    closed = client.close_election("shape")
    tally = client.tally("shape")
    remote = client.audit_report("shape")
    client.close()

    assert {int(option): count for option, count in tally.counts.items()} == result.counts == {0: 1, 1: 2}
    assert (closed.num_registered, closed.num_ballots) == local_sizes == (3, 3)
    assert local.ok and remote.ok
    assert remote.num_checks == local.num_checks
    assert remote.num_failed == local.num_failed == 0


def test_shutdown_releases_a_tallied_tenants_worker_pool(make_gateway):
    fixture = make_gateway(ServiceConfig(executor_spec="cluster:2", governor=GovernorConfig.from_env()))
    client = fixture.client(client_id="pool")
    client.create_election("pool", 3, 2)
    session = CastingSession(client, "pool")
    session.refresh()
    for voter_id in VOTERS:
        session.register(voter_id)
    session.cast([(session.real_credential(voter_id), 1) for voter_id in VOTERS])
    client.close_election("pool")
    assert client.tally("pool").counts == {"0": 0, "1": 3}
    assert client.audit_report("pool").ok

    workers = list(fixture.service.tenants["pool"].election.executor.worker_processes)
    assert workers and all(worker.poll() is None for worker in workers), "no live workers: nothing to release"
    fixture.run(fixture.service.shutdown())
    assert all(worker.poll() is not None for worker in workers)
    client.close()


def test_a_dist_audit_at_the_gateway_runs_on_the_tenants_executor(make_gateway):
    """``audit_spec="dist"`` ships its chunks over the election's executor, as in-process."""
    fixture = make_gateway(
        ServiceConfig(executor_spec="cluster:2", audit_spec="dist:4", governor=GovernorConfig.from_env())
    )
    client = fixture.client(client_id="dist")
    client.create_election("dist", 3, 2)
    session = CastingSession(client, "dist")
    session.refresh()
    for voter_id in VOTERS:
        session.register(voter_id)
    session.cast([(session.real_credential(voter_id), 0) for voter_id in VOTERS])
    client.close_election("dist")
    client.tally("dist")
    executor = fixture.service.tenants["dist"].election.executor
    shipped = []
    plain_starmap = executor.starmap
    executor.starmap = lambda fn, items, chunksize=None: (
        shipped.append(fn.__name__) or plain_starmap(fn, items, chunksize)
    )
    report = client.audit_report("dist")
    assert report.ok and report.strategy == "dist:4"
    assert shipped == ["_chunk_verdicts_named"]
    client.close()


def test_ledger_seq_is_the_appends_own_and_not_a_scan(gateway, monkeypatch):
    """Out of roll order, and with the log's full listing forbidden."""
    client = gateway.client(client_id="seq")
    client.create_election("seq", 3, 2)
    with monkeypatch.context() as patch:
        def no_scan(self):
            raise AssertionError("registration scanned the log")

        patch.setattr(AppendOnlyLog, "entries", no_scan)
        responses = [client.register("seq", VOTERS[index]) for index in (2, 0, 1)]
    board = gateway.service.tenants["seq"].setup.board
    payloads = [entry.payload for entry in board.registration_log.entries()]
    for response in responses:
        record = board.registration_for(response.voter_id)
        assert payloads[response.ledger_seq] == record.payload()
    assert [response.ledger_seq for response in responses] == [3, 4, 5]
    client.close()


def test_a_registration_is_durable_before_its_response(make_gateway, tmp_path):
    """On a write-behind SQLite board a registration's records leave the
    pending queue — in one flush, one commit — before the response returns."""
    path = tmp_path / "board.db"
    telemetry.configure("mem", propagate=False)
    try:
        fixture = make_gateway(ServiceConfig(board_spec=f"batched:64:sqlite:{path}"))
        client = fixture.client(client_id="durable")
        client.create_election("durable", 3, 2)
        flushes_before = len(telemetry.snapshot().spans_named("ledger.flush"))
        client.register("durable", VOTERS[0])
        backend = fixture.service.tenants["durable"].setup.board.backend
        assert backend.num_pending == 0
        assert len(telemetry.snapshot().spans_named("ledger.flush")) - flushes_before == 1
        client.close()
    finally:
        telemetry.configure("off")
    conn = sqlite3.connect(str(path))
    try:
        assert conn.execute("SELECT voter_id FROM registrations").fetchall() == [(VOTERS[0],)]
    finally:
        conn.close()


def test_tally_of_a_closed_election_without_ballots_is_an_empty_result(gateway):
    """Over HTTP an election nobody voted in tallies to zeros and audits ``ok``;
    only the in-process driver's ``run_tally`` insists that voting came first."""
    client = gateway.client(client_id="empty")
    client.create_election("empty", 3, 2)
    for index in (2, 0):
        client.register("empty", VOTERS[index])
    client.close_election("empty")
    tally = client.tally("empty")
    assert tally.counts == {"0": 0, "1": 0}
    assert (tally.turnout, tally.num_ballots_on_ledger, tally.num_valid_ballots) == (0, 0, 0)
    assert (tally.num_counted, tally.num_discarded, tally.winner) == (0, 0, 0)
    assert client.info("empty").status == "tallied"
    report = client.audit_report("empty")
    assert report.ok and report.num_checks == 24
    client.close()
