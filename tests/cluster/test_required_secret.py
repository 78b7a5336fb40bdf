"""Every cluster holds an enrollment secret: nothing starts without one, and
a peer that cannot prove it gets no byte past the restricted decode."""

from __future__ import annotations

import os
import pathlib
import socket
import subprocess
import sys
import threading

import pytest

from repro.cluster import executor as executor_module
from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    ConnectionClosed,
    Frame,
    FrameKind,
    expect_frame,
    hello_mac,
    recv_frame,
    send_frame,
)
from repro.errors import ClusterError
from repro.runtime.executor import executor_from_spec


def test_a_remote_executor_without_the_secret_binds_nothing(monkeypatch):
    monkeypatch.delenv("REPRO_CLUSTER_SECRET", raising=False)
    monkeypatch.setattr(
        executor_module, "ClusterCoordinator", lambda *args, **kwargs: pytest.fail("bound a port")
    )
    before = set(threading.enumerate())
    with pytest.raises(ClusterError, match="REPRO_CLUSTER_SECRET"):
        executor_from_spec("remote:127.0.0.1:0")
    assert set(threading.enumerate()) == before


def test_a_worker_without_the_secret_exits_before_it_dials():
    child_env = {key: value for key, value in os.environ.items() if key != "REPRO_CLUSTER_SECRET"}
    result = subprocess.run(
        [sys.executable, "-m", "repro.cluster.worker", "--connect", "127.0.0.1:1"],
        env=child_env, capture_output=True, text=True, timeout=60,
    )
    assert result.returncode != 0
    assert "REPRO_CLUSTER_SECRET" in result.stderr
    # Port 1 refuses; a worker that had dialled would say so.
    assert "enrollment failed" not in result.stderr and "refused" not in result.stderr


class _Touch:
    """Pickles as a call that creates ``path`` when unpickled."""

    def __init__(self, path: pathlib.Path) -> None:
        self.path = path

    def __reduce__(self):
        return (self.path.touch, ())


def test_a_stranger_with_a_bad_mac_cannot_reach_the_unpickler(tmp_path):
    marker = tmp_path / "stranger.marker"
    coordinator = ClusterCoordinator(secret=b"k" * 32)
    try:
        with socket.create_connection(coordinator.address, timeout=10) as sock:
            nonce = expect_frame(sock, FrameKind.CHALLENGE, pre_auth=True).payload["nonce"]
            send_frame(sock, Frame(FrameKind.HELLO, {
                "protocol_version": PROTOCOL_VERSION,
                "worker_id": "stranger",
                "nonce": b"s" * 16,
                "mac": hello_mac(b"not-the-secret", nonce, "stranger"),
            }))
            # The "ready" heartbeat an admitted worker would send next.
            send_frame(sock, Frame(FrameKind.HEARTBEAT, _Touch(marker)))
            with pytest.raises((ConnectionClosed, ConnectionResetError)):
                while True:
                    recv_frame(sock, pre_auth=True)  # the reject, then the hang-up
        assert coordinator.worker_ids() == []
    finally:
        coordinator.shutdown()
    assert not marker.exists()
