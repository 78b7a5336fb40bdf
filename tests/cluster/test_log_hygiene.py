"""Secret hygiene of the coordinator's log stream (the REP001 contract).

The cluster logger narrates enrollment and fault handling — exactly the
paths that touch the shared secret, handshake nonces, and MAC tags.  These
tests drive the two noisiest paths (a rejected handshake and a worker lost
mid-shard) with *known* secret material and assert none of it reaches the
log records in any rendering (raw bytes repr, hex, or interpolated args).
"""

import logging
import socket
import threading

import pytest

import cluster_tasks

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.executor import RemoteExecutor
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    Frame,
    FrameKind,
    expect_frame,
    hello_mac,
    send_frame,
)
from repro.errors import ClusterError

# Distinctive, grep-able secret material: if any rendering of these bytes
# lands in a log record, the assertions below name the leak precisely.
SECRET = b"TOPSECRET-cluster-enroll-0123456"
WRONG_SECRET = b"WRONGSECRET-intruder-attempt-456"


def _forbidden_renderings(*materials: bytes) -> list:
    tokens = []
    for blob in materials:
        tokens.append(repr(blob))
        tokens.append(blob.hex())
        try:
            tokens.append(blob.decode())
        except UnicodeDecodeError:
            pass
    return tokens


def _assert_log_clean(caplog, materials) -> None:
    tokens = _forbidden_renderings(*materials)
    for record in caplog.records:
        rendered = record.getMessage() + " " + repr(record.args)
        for token in tokens:
            assert token not in rendered, (
                f"secret material leaked into log record: {record.getMessage()!r}"
            )


class TestHandshakeRejectionHygiene:
    def test_rejected_enrollment_logs_no_secret_nonce_or_mac(self, caplog):
        caplog.set_level(logging.DEBUG, logger="repro.cluster.coordinator")
        coordinator = ClusterCoordinator(secret=SECRET)
        try:
            with socket.create_connection(coordinator.address, timeout=10) as sock:
                challenge = expect_frame(sock, FrameKind.CHALLENGE).payload
                nonce = challenge["nonce"]
                tag = hello_mac(WRONG_SECRET, nonce, "intruder")
                send_frame(sock, Frame(FrameKind.HELLO, {
                    "protocol_version": PROTOCOL_VERSION,
                    "worker_id": "intruder",
                    "nonce": b"intruder-nonce-0",
                    "mac": tag,
                }))
                with pytest.raises(ClusterError):
                    expect_frame(sock, FrameKind.WELCOME)
        finally:
            coordinator.shutdown()
        # The rejection must have been logged (the event is operator-visible)...
        assert any("rejecting enrollment" in r.getMessage() for r in caplog.records)
        # ...but with the failed check named, never the material that failed it.
        _assert_log_clean(
            caplog, [SECRET, WRONG_SECRET, nonce, tag, b"intruder-nonce-0"]
        )


class TestWorkerLossHygiene:
    def test_worker_loss_logs_identity_not_credentials(self, caplog):
        caplog.set_level(logging.DEBUG, logger="repro.cluster.coordinator")
        executor = RemoteExecutor(secret=SECRET, spawn_workers=2)
        try:
            executor.warm()
            victim = executor.worker_processes[0]
            threading.Timer(0.25, victim.kill).start()
            results = executor.starmap(
                cluster_tasks.slow_echo, [(i, 0.05) for i in range(40)]
            )
            assert results == list(range(40))
        finally:
            executor.close()
        # The loss is WARNING-logged with the worker identity and moved keys...
        assert any("lost" in r.getMessage() for r in caplog.records)
        # ...and the whole session's records — enrollment (which carried the
        # real MAC exchange), dispatch chatter, loss, shutdown — hold no
        # rendering of the enrollment secret.
        _assert_log_clean(caplog, [SECRET])
