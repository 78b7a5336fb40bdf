"""Fixtures shared by the registration tests."""

from __future__ import annotations

import pytest

from repro import telemetry


@pytest.fixture
def traced_spans():
    """Telemetry into a ``mem`` sink for one test; call the fixture's value for the span events so far."""
    state = telemetry.configure("mem", propagate=False)
    try:
        yield lambda: [event for event in state.sink.events() if event["type"] == "span"]
    finally:
        telemetry.configure("off", propagate=False)
