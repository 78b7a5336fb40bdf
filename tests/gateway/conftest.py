"""Fixtures for the gateway suite: a live server on an ephemeral port.

The server runs on its own event loop in a background thread, so tests can
drive it with the blocking :class:`repro.gateway.client.GatewayClient` —
exactly how a real client would.  ``gateway.run(coro)`` gives tests direct
(thread-safe) access to the service's async API for white-box assertions.
"""

from __future__ import annotations

import asyncio
import gc
import threading

import pytest

from repro.gateway.client import GatewayClient
from repro.gateway.governor import GovernorConfig
from repro.gateway.routes import GatewayServer
from repro.gateway.service import GatewayService, ServiceConfig


class GatewayFixture:
    """A running gateway: service + server + a loop thread to drive them."""

    def __init__(self, config: ServiceConfig) -> None:
        self.loop = asyncio.new_event_loop()
        # Exceptions no task or callback handled (a crashed connection
        # handler, a never-awaited failure) only print a traceback by
        # default; record them so close() can fail the test that caused them.
        self.unhandled: list = []
        self.loop.set_exception_handler(lambda loop, context: self.unhandled.append(context))
        self.thread = threading.Thread(target=self._run_loop, daemon=True)
        self.thread.start()
        self.service = GatewayService(config)
        self.server = GatewayServer(self.service)
        self.run(self.server.start())

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_forever()

    def run(self, coro, timeout: float = 120.0):
        """Run a coroutine on the server's loop and wait for its result."""
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(timeout)

    @property
    def port(self) -> int:
        return self.server.port

    def client(self, client_id: str = "") -> GatewayClient:
        return GatewayClient(port=self.port, client_id=client_id)

    def close(self) -> None:
        self.run(self.server.stop())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=30)
        gc.collect()  # "exception was never retrieved" is reported on collection
        self.loop.close()
        assert not self.unhandled, f"unhandled exceptions on the gateway loop: {self.unhandled}"


@pytest.fixture()
def gateway():
    """A gateway with test-friendly defaults (env-tunable batch geometry)."""
    fixture = GatewayFixture(ServiceConfig(governor=GovernorConfig.from_env()))
    yield fixture
    fixture.close()


@pytest.fixture()
def make_gateway():
    """Factory fixture for tests needing custom governor/board settings."""
    fixtures = []

    def factory(config: ServiceConfig) -> GatewayFixture:
        fixture = GatewayFixture(config)
        fixtures.append(fixture)
        return fixture

    yield factory
    for fixture in fixtures:
        fixture.close()
