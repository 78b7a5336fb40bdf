"""Distributed tracing over real HTTP, plus the debug ops plane.

The acceptance pin for the tracing work: one SDK cast over a real socket
produces ONE trace whose parent chain runs
``gateway.client.request`` → ``gateway.request`` → ``gateway.batch.admit``
→ ``ledger.flush`` — across the HTTP boundary and the ``to_thread`` flush
hop.  The debug routes are exercised both enabled (live JSON state) and
disabled (invisible: plain 404).
"""

from __future__ import annotations

import http.client
import json
import os
from pathlib import Path

import pytest

from repro import telemetry
from repro.gateway.client import CastingSession, GatewayClientError
from repro.gateway.governor import GovernorConfig
from repro.gateway.routes import DEBUG_ENV
from repro.gateway.service import ServiceConfig
from repro.spec import env
from repro.telemetry import TelemetrySnapshot
from repro.telemetry.__main__ import main as telemetry_cli


@pytest.fixture(autouse=True)
def clean_telemetry():
    yield
    telemetry.configure("off")
    os.environ.pop("REPRO_TELEMETRY", None)


def test_one_cast_is_one_trace_from_sdk_to_ledger_flush(make_gateway, tmp_path):
    """SDK → request → append → ledger flush: one trace_id, one chain."""
    trace_file = tmp_path / "trace.jsonl"
    telemetry.configure(f"jsonl:{trace_file}", propagate=False)
    # batch_size=1 sets the BatchedBoard's flush trigger to 1, so the cast's
    # append flushes to the inner chain inside this same trace.
    fixture = make_gateway(ServiceConfig(governor=GovernorConfig(batch_size=1)))
    client = fixture.client(client_id="traced")
    client.create_election("traced", 4, 2)
    session = CastingSession(client, "traced")
    session.refresh()
    credential = session.register("voter-0000").credentials[0]
    response = session.cast([(credential, 1)])
    assert len(response.ledger_seqs) == 1
    client.close()
    telemetry.configure("off")  # flush the jsonl sink

    snapshot = TelemetrySnapshot.from_jsonl(str(trace_file))
    casts = [
        span
        for span in snapshot.spans_named("gateway.client.request")
        if span["attrs"].get("path", "").endswith("/ballots")
    ]
    assert len(casts) == 1
    sdk_span = casts[0]
    trace_id = sdk_span["trace_id"]
    chain = snapshot.trace_spans(trace_id)
    by_name = {span["name"]: span for span in chain}
    assert {
        "gateway.client.request",
        "gateway.request",
        "gateway.batch.admit",
        "ledger.flush",
    } <= set(by_name)
    # The parent chain crosses every boundary without forking the trace.
    assert by_name["gateway.request"]["parent_id"] == sdk_span["span_id"]
    assert by_name["gateway.batch.admit"]["parent_id"] == by_name["gateway.request"]["span_id"]
    assert by_name["ledger.flush"]["parent_id"] == by_name["gateway.batch.admit"]["span_id"]

    # The ops-plane CLI renders the same trace as a waterfall (unique-prefix
    # lookup, exactly how an operator would paste an exemplar).
    assert "ledger.flush" in snapshot.render_waterfall(trace_id)
    assert telemetry_cli(["trace", str(trace_file), trace_id[:12]]) == 0
    assert telemetry_cli(["slowest", str(trace_file), "3"]) == 0

    # CI points this at its artifact directory: every run ships the real
    # end-to-end trace this test just pinned, plus its rendered waterfall.
    export_dir = env("REPRO_TRACE_EXPORT_DIR")
    if export_dir:
        target = Path(export_dir)
        target.mkdir(parents=True, exist_ok=True)
        (target / "trace.jsonl").write_bytes(trace_file.read_bytes())
        (target / "waterfall.txt").write_text(snapshot.render_waterfall(trace_id) + "\n")


def test_a_registration_request_traces_the_ceremony_inside_it(make_gateway):
    """``POST …/registrations``: TRIP's six phases are children of the request's
    span, across the ``to_thread`` hop, each scan and print inside a phase."""
    telemetry.configure("mem", propagate=False)
    fixture = make_gateway(ServiceConfig())
    client = fixture.client(client_id="ceremony")
    client.create_election("ceremony", 4, 2)
    session = CastingSession(client, "ceremony")
    session.refresh()
    session.register("voter-0000")
    client.close()

    snapshot = telemetry.snapshot()
    (request,) = [
        span for span in snapshot.spans_named("gateway.request") if span["attrs"]["route"].endswith("registrations")
    ]
    phases = snapshot.spans_named("registration.phase")
    assert {span["attrs"]["phase"] for span in phases} == {
        "CheckIn", "Authorization", "RealToken", "FakeToken", "CheckOut", "Activation",
    }
    assert {span["parent_id"] for span in phases} == {request["span_id"]}
    phase_ids = {span["span_id"] for span in phases}
    inner = snapshot.spans_named("registration.scan") + snapshot.spans_named("registration.print")
    assert inner and {span["parent_id"] for span in inner} <= phase_ids


def test_response_echoes_traceparent_and_request_histogram_has_exemplar(gateway):
    telemetry.configure("mem", propagate=False)
    trace_id = "4bf92f3577b34da6a3ce929d0e0e4736"
    connection = http.client.HTTPConnection("127.0.0.1", gateway.port, timeout=30)
    try:
        connection.request(
            "GET", "/healthz",
            headers={"traceparent": f"00-{trace_id}-00f067aa0ba902b7-01"},
        )
        response = connection.getresponse()
        response.read()
        echoed = response.getheader("traceparent")
    finally:
        connection.close()
    # The response names the server's own request span within OUR trace.
    context = telemetry.parse_traceparent(echoed or "")
    assert context is not None and context.trace_id == trace_id
    assert context.span_id != "00f067aa0ba902b7"

    snapshot = telemetry.snapshot()
    (request_span,) = snapshot.spans_named("gateway.request")
    assert request_span["trace_id"] == trace_id
    assert request_span["span_id"] == context.span_id
    assert request_span["attrs"]["status"] == 200
    # The latency histogram kept that trace id as its exemplar.
    key = ("gateway.request.seconds", (("method", "GET"), ("route", "/healthz")))
    assert snapshot.histogram_exemplars[key] == trace_id
    assert snapshot.histogram_quantile("gateway.request.seconds", 0.99) is not None


def test_debug_routes_are_invisible_without_the_env_flag(gateway, monkeypatch):
    monkeypatch.delenv(DEBUG_ENV, raising=False)
    client = gateway.client()
    for path in ("/v1/debug/spans", "/v1/debug/queues",
                 "/v1/debug/governors", "/v1/debug/tenants"):
        with pytest.raises(GatewayClientError) as excinfo:
            client._raw_request("GET", path, None)
        assert excinfo.value.status == 404
    client.close()


def test_debug_routes_serve_live_json_state(gateway, monkeypatch):
    monkeypatch.setenv(DEBUG_ENV, "1")
    telemetry.configure("mem", propagate=False)
    client = gateway.client(client_id="ops")
    client.create_election("dbg", 4, 2)

    status, payload = client._raw_request("GET", "/v1/debug/tenants", None)
    assert status == 200
    tenants = json.loads(payload)
    assert tenants["draining"] is False
    assert tenants["tenants"]["dbg"]["status"] == "open"
    assert tenants["tenants"]["dbg"]["num_voters"] == 4

    _, payload = client._raw_request("GET", "/v1/debug/queues", None)
    queues = json.loads(payload)
    assert queues["queues"]["dbg"] == {"queued": 0, "in_flight": 0}

    _, payload = client._raw_request("GET", "/v1/debug/governors", None)
    governors = json.loads(payload)
    assert "dbg" in governors["governors"]

    # The spans view reports whatever is in flight — at minimum the
    # gateway.request span serving this very call, with its trace id.
    _, payload = client._raw_request("GET", "/v1/debug/spans", None)
    spans = json.loads(payload)["spans"]
    ours = [span for span in spans if span["name"] == "gateway.request"]
    assert ours and len(ours[0]["trace_id"]) == 32
    assert ours[0]["elapsed_seconds"] >= 0
    client.close()
