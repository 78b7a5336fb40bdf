"""Graceful drain: in-process shutdown semantics and SIGTERM end-to-end."""

from __future__ import annotations

import asyncio
import http.client
import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.gateway.client import CastingSession, GatewayClientError, RateLimited


def test_shutdown_refuses_new_work_and_flushes(gateway):
    client = gateway.client(client_id="drain")
    client.create_election("drain-demo", 4, 2)
    session = CastingSession(client, "drain-demo")
    session.refresh()
    credentials = [session.register(f"voter-{i:04d}").credentials[0] for i in range(3)]
    wires = [session.make_ballot_wire(credential, 1) for credential in credentials]
    session.cast([(credentials[0], 1)])

    gateway.run(gateway.service.shutdown())

    assert client.health().status == "draining"
    # New casts are refused with 503 + Retry-After while draining.
    with pytest.raises(RateLimited) as excinfo:
        client.cast_ballots("drain-demo", wires[1:])
    assert excinfo.value.status == 503
    assert excinfo.value.retry_after_seconds > 0.0
    with pytest.raises(GatewayClientError) as excinfo2:
        client.create_election("late", 2, 2)
    assert excinfo2.value.status == 503

    # Everything admitted before the drain reached the inner chains.
    board = gateway.service.tenants["drain-demo"].setup.board
    assert board.num_ballots == 1
    assert board.verify_all_chains()
    client.close()


def test_queued_casts_resolve_during_drain(gateway):
    """Casts parked on the admission queue still get receipts on shutdown."""
    client = gateway.client(client_id="drain2")
    client.create_election("drain-queue", 4, 2)
    session = CastingSession(client, "drain-queue")
    session.refresh()
    credential = session.register("voter-0000").credentials[0]
    response = session.cast([(credential, 0), (credential, 1)])
    assert len(response.ledger_seqs) == 2
    gateway.run(gateway.service.shutdown())
    board = gateway.service.tenants["drain-queue"].setup.board
    assert board.num_ballots == 2
    client.close()


def test_close_awaits_a_cast_whose_client_hung_up(gateway):
    """An admitted cast outlives its connection: it lands exactly once, and
    ``close_election`` does not return before it has."""
    from repro.gateway.schemas import CastRequest
    from repro.ledger.backends.batched import AsyncIngestionFrontend

    class GatedFrontend(AsyncIngestionFrontend):
        """Holds every append until the test releases it."""

        def __init__(self, board) -> None:
            super().__init__(board)
            self.entered = threading.Event()
            self.release = threading.Event()

        async def post_ballots(self, records):
            self.entered.set()
            await asyncio.to_thread(self.release.wait, 30)
            return await super().post_ballots(records)

    client = gateway.client(client_id="drain3")
    client.create_election("hung-up", 2, 2)
    session = CastingSession(client, "hung-up")
    session.refresh()
    wire = session.make_ballot_wire(session.register("voter-0000").credentials[0], 1)
    tenant = gateway.service.tenants["hung-up"]
    tenant.frontend = frontend = GatedFrontend(tenant.setup.board.backend)

    # Send the cast, then hang up while its append is still in flight.
    connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    connection.request(
        "POST", "/v1/elections/hung-up/ballots",
        body=CastRequest(ballots=[wire]).to_json().encode(),
        headers={"Content-Type": "application/json"},
    )
    assert frontend.entered.wait(timeout=30)
    connection.close()

    closed = []
    closer = threading.Thread(target=lambda: closed.append(client.close_election("hung-up")))
    closer.start()
    closer.join(timeout=0.2)
    assert closer.is_alive(), "close_election returned with an append still in flight"
    assert tenant.governor.queued == 1

    frontend.release.set()
    closer.join(timeout=30)
    assert not closer.is_alive()
    assert closed[0].status == "closed"
    assert closed[0].num_ballots == 1
    assert closed[0].pending_casts == 0
    assert tenant.governor.queued == 0
    assert len(tenant.setup.board.ballots("hung-up")) == 1
    client.close()


def test_sigterm_drains_and_exits_zero():
    """``python -m repro.gateway`` drains on SIGTERM and exits 0."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    env.pop("REPRO_TELEMETRY", None)
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.gateway", "--election", "sig:3:2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        text=True,
    )
    try:
        line = process.stdout.readline()
        assert "gateway listening on" in line, line
        host_port = line.strip().rsplit(" ", 1)[-1]
        port = int(host_port.rsplit(":", 1)[-1])

        from repro.gateway.client import GatewayClient

        client = GatewayClient(port=port, client_id="sigterm-test")
        health = client.health()
        assert health.status == "ok"
        assert health.elections == 1
        assert client.info("sig").status == "open"
        client.close()

        process.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 60
        while process.poll() is None and time.monotonic() < deadline:
            time.sleep(0.1)
        assert process.poll() == 0, f"gateway exited {process.poll()}"
        remaining = process.stdout.read()
        assert "gateway draining" in remaining
        assert "gateway drained" in remaining
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10)
