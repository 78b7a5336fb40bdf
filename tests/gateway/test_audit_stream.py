"""The audit stream: server-sent status events and the audit-report push."""

from __future__ import annotations

import socket
import threading
import time

import pytest

from repro.errors import GatewayError
from repro.gateway.client import CastingSession, GatewayClient, GatewayClientError
from repro.gateway.http import MAX_BODY_BYTES


def test_audit_stream_delivers_status_and_report(gateway):
    client = gateway.client(client_id="ws")
    client.create_election("ws-demo", 4, 2)
    session = CastingSession(client, "ws-demo")
    session.refresh()
    credential = session.register("voter-0000").credentials[0]
    session.cast([(credential, 1)])

    events = []
    got_report = threading.Event()

    def subscriber() -> None:
        stream_client = gateway.client(client_id="ws-sub")
        for event in stream_client.audit_stream("ws-demo"):
            events.append(event)
            if event.event == "audit-report":
                got_report.set()
                return

    thread = threading.Thread(target=subscriber, daemon=True)
    thread.start()

    client.close_election("ws-demo")
    client.tally("ws-demo")
    report = client.audit_report("ws-demo")

    assert got_report.wait(timeout=60), f"no audit-report event; saw {events}"
    thread.join(timeout=10)

    kinds = [event.event for event in events]
    assert kinds[0] == "status"  # the snapshot pushed on subscribe
    assert "audit-report" in kinds
    statuses = [event.status for event in events if event.event == "status"]
    assert statuses[0] in ("open", "closed", "tallied")

    pushed = events[-1]
    assert pushed.report is not None
    assert pushed.report.fingerprint == report.fingerprint
    assert pushed.report.ok == report.ok
    client.close()


def test_audit_stream_unknown_election_rejected(gateway):
    client = gateway.client()
    with pytest.raises(GatewayError):
        for _ in client.audit_stream("missing"):
            break
    client.close()


def test_audit_stream_errors_are_the_dispatchers(gateway):
    """404 and 405 on the stream come from the route table, like any route's."""
    client = gateway.client()
    with pytest.raises(GatewayClientError) as excinfo:
        next(client.audit_stream("missing"))
    assert excinfo.value.status == 404
    client.create_election("method", 2, 2)
    with pytest.raises(GatewayClientError) as excinfo:
        client._raw_request("POST", "/v1/elections/method/audit/stream", None)
    assert excinfo.value.status == 405
    client.close()


def _subscribers(gateway, election_id: str) -> int:
    async def count() -> int:
        return gateway.service.debug_tenants()["tenants"][election_id]["subscribers"]

    return gateway.run(count())


def _wait_for_subscribers(gateway, election_id: str, expected: int) -> int:
    """The subscriber count once it reaches ``expected`` or 30 s pass."""
    deadline = time.monotonic() + 30
    while (count := _subscribers(gateway, election_id)) != expected and time.monotonic() < deadline:
        time.sleep(0.01)
    return count


def test_stop_ends_a_subscribers_iteration(gateway):
    client = gateway.client()
    client.create_election("stop-demo", 2, 2)
    client.close()
    events, failures = [], []
    subscribed, ended = threading.Event(), threading.Event()

    def subscriber() -> None:
        try:
            for event in gateway.client().audit_stream("stop-demo"):
                events.append(event)
                subscribed.set()
        except Exception as error:  # noqa: BLE001 - the test reports it
            failures.append(error)
        ended.set()

    threading.Thread(target=subscriber, daemon=True).start()
    assert subscribed.wait(timeout=30)
    gateway.run(gateway.server.stop())
    assert ended.wait(timeout=30), "the stream outlived the server's stop()"
    assert failures == []
    assert [event.event for event in events] == ["status"]


def test_a_stream_opened_after_the_drain_is_a_503(gateway):
    """After a drain no sentinel would ever end a new subscription."""
    client = gateway.client()
    client.create_election("drained", 2, 2)
    gateway.run(gateway.service.shutdown())
    with pytest.raises(GatewayClientError) as excinfo:
        next(client.audit_stream("drained"))
    assert excinfo.value.status == 503
    assert _subscribers(gateway, "drained") == 0
    client.close()


def test_closing_the_stream_unsubscribes(gateway):
    client = gateway.client()
    client.create_election("leave", 2, 2)
    stream = client.audit_stream("leave")
    assert next(stream).event == "status"
    assert _subscribers(gateway, "leave") == 1
    stream.close()
    assert _wait_for_subscribers(gateway, "leave", 0) == 0
    client.close()


EVENT_STREAM_HEAD = b"HTTP/1.1 200 OK\r\nContent-Type: text/event-stream\r\nConnection: close\r\n\r\n"


def _serve_once(body: bytes, head: bytes = EVENT_STREAM_HEAD) -> int:
    """A listener that answers one request with ``head`` + ``body``."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve() -> None:
        with listener:
            connection, _ = listener.accept()
            with connection:
                connection.recv(65536)
                try:
                    connection.sendall(head + body)
                except OSError:
                    pass  # the client hung up on a line it refused

    threading.Thread(target=serve, daemon=True).start()
    return listener.getsockname()[1]


@pytest.mark.parametrize(
    "body",
    [
        b"data: " + b"x" * (MAX_BODY_BYTES + 1) + b"\n\n",
        b"data: not json\n\n",
        b'data: {"event": "status"}\n\n',
        b"data: " + b"[" * 100_000 + b"\n\n",
        b'data: {"event": "status", "election_id": "e", "status": "open"}',
    ],
    ids=["line-over-max-body", "not-json", "missing-fields", "nested-too-deep", "cut-off"],
)
def test_a_hostile_stream_is_a_gateway_error(body):
    client = GatewayClient(port=_serve_once(body), timeout=30)
    with pytest.raises(GatewayError):
        for _ in client.audit_stream("e"):
            pass


@pytest.mark.parametrize(
    "head, body",
    [
        (b"HTTP/1.1 200 OK\r\nConnection: close\r\n\r\n", b" " * (MAX_BODY_BYTES + 1)),
        (b"HTTP/1.1 200 OK\r\nContent-Length: 1000000000000\r\n\r\n", b"{}"),
    ],
    ids=["body-over-max", "length-announced-past-max"],
)
def test_a_hostile_response_body_is_a_gateway_error(head, body):
    """The SDK reads at most ``MAX_BODY_BYTES`` of any response, whatever the server announces."""
    client = GatewayClient(port=_serve_once(body, head), timeout=30)
    with pytest.raises(GatewayError):
        client.health()
    client.close()
