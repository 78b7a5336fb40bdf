"""A closed cluster leaves nothing running: no thread, no listening port.

A tallier that opens and closes a cluster per election must not keep a
thread, a socket or a port per cluster; these tests compare the process's
thread set and the coordinator's old address before and after teardown.
"""

from __future__ import annotations

import socket
import threading

import pytest

import cluster_tasks

from repro.cluster.coordinator import ClusterCoordinator
from repro.runtime.executor import executor_from_spec


def assert_refused(address):
    with pytest.raises(ConnectionRefusedError):
        socket.create_connection(address, timeout=5).close()


def test_a_closed_cluster_executor_leaves_no_thread_and_no_port():
    before = set(threading.enumerate())
    executor = executor_from_spec("cluster:2")
    executor.warm()
    assert executor.map(cluster_tasks.square, list(range(8))) == [i * i for i in range(8)]
    address = executor.coordinator.address
    executor.close()
    assert set(threading.enumerate()) == before
    assert_refused(address)


def test_a_coordinator_no_worker_joined_leaves_no_thread_and_no_port():
    before = set(threading.enumerate())
    coordinator = ClusterCoordinator(secret=b"k" * 32)
    address = coordinator.address
    coordinator.shutdown()
    assert set(threading.enumerate()) == before
    assert_refused(address)
    coordinator.shutdown()  # a second shutdown does nothing
    assert set(threading.enumerate()) == before


def test_a_failed_bind_releases_the_listeners_already_bound():
    """The second address is taken: the constructor raises, and the first
    listener and its accept thread are gone too."""
    with socket.socket() as taken, socket.socket() as probe:
        taken.bind(("127.0.0.1", 0))
        taken.listen(1)
        probe.bind(("127.0.0.1", 0))
        free = probe.getsockname()
        probe.close()
        before = set(threading.enumerate())
        with pytest.raises(OSError):
            ClusterCoordinator(listen=[free, taken.getsockname()], secret=b"k" * 32)
        assert set(threading.enumerate()) == before
        assert_refused(free)


def test_a_closed_executor_still_names_its_address():
    """The bound addresses are recorded at bind time, not read off the
    closed listeners."""
    executor = executor_from_spec("cluster:1")
    address = executor.coordinator.address
    executor.close()
    assert executor.coordinator.address == address
    assert executor.coordinator.addresses == [address]
    assert f"address={address[0]}:{address[1]}" in repr(executor)
    assert "workers=0" in repr(executor.coordinator)
