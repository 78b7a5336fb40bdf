#!/usr/bin/env python3
"""A terminal election-night dashboard over the gateway's ``/metrics`` endpoint.

The ROADMAP note about a live metrics dashboard reduces to "polling plus
rendering" once the gateway serves
``repro.telemetry.snapshot().to_prometheus()``; this example is that consumer.
It polls ``GET /metrics``, parses the Prometheus text exposition with nothing
but string splits, and renders stat tiles — cast totals with a per-second
rate, admission queue depth and high-water mark, shed counts — the same way a
browser dashboard would, just without the browser.

Point it at a running gateway::

    python -m repro.gateway --election demo:16:2 &
    python examples/poll_metrics.py --port <port>

or run it with no arguments and it starts a loopback demo gateway with a
background caster so the numbers move on their own.
"""

from __future__ import annotations

import argparse
import threading
import time
from typing import Dict, List, Optional, Tuple


def parse_exposition(text: str) -> Dict[str, float]:
    """Sum Prometheus sample lines by metric name (labels folded together)."""
    totals: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        name_and_labels, _, value = line.rpartition(" ")
        name = name_and_labels.split("{", 1)[0]
        try:
            totals[name] = totals.get(name, 0.0) + float(value)
        except ValueError:
            continue
    return totals


def parse_buckets(text: str, metric: str) -> List[Tuple[float, float]]:
    """Cumulative ``(le, count)`` pairs for one histogram, label sets merged.

    Merging by ``le`` across label sets is sound because the telemetry layer
    records every series into the same fixed global bucket bounds.
    """
    merged: Dict[float, float] = {}
    prefix = metric + "_bucket{"
    for line in text.splitlines():
        if not line.startswith(prefix) or 'le="' not in line:
            continue
        labels, _, value = line.rpartition(" ")
        le_text = labels.split('le="', 1)[1].split('"', 1)[0]
        try:
            le = float("inf") if le_text == "+Inf" else float(le_text)
            merged[le] = merged.get(le, 0.0) + float(value)
        except ValueError:
            continue
    return sorted(merged.items())


def bucket_quantile(buckets: List[Tuple[float, float]], quantile: float) -> Optional[float]:
    """Linear-interpolated quantile from cumulative ``(le, count)`` pairs."""
    if not buckets or buckets[-1][1] <= 0:
        return None
    target = quantile * buckets[-1][1]
    previous_le, previous_count = 0.0, 0.0
    for le, count in buckets:
        if count >= target:
            if le == float("inf"):
                return previous_le  # overflow bucket: report its lower bound
            span = count - previous_count
            fraction = (target - previous_count) / span if span else 1.0
            return previous_le + (le - previous_le) * fraction
        previous_le, previous_count = le, count
    return previous_le


def _format_latency(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds < 1.0:
        return f"{seconds * 1000:.1f}ms"
    return f"{seconds:.2f}s"


def render_tiles(
    text: str,
    totals: Dict[str, float],
    previous: Optional[Dict[str, float]],
    elapsed: float,
) -> str:
    """One dashboard line: counters as totals + rates, gauges as levels."""

    def tile(name: str, label: str) -> str:
        value = totals.get(name, 0.0)
        if previous is not None and elapsed > 0:
            rate = (value - previous.get(name, 0.0)) / elapsed
            return f"{label} {value:,.0f} ({rate:+,.0f}/s)"
        return f"{label} {value:,.0f}"

    queue = totals.get("repro_gateway_queue_depth", 0.0)
    queue_high = totals.get("repro_gateway_queue_depth_max", 0.0)
    buckets = parse_buckets(text, "repro_gateway_request_seconds")
    p50 = _format_latency(bucket_quantile(buckets, 0.50))
    p99 = _format_latency(bucket_quantile(buckets, 0.99))
    # Audit progress: reports fingerprinted at tally/audit time plus the
    # individual checks the verifier strategies counted along the way.
    audits = totals.get("repro_audit_reports_total", 0.0)
    checks = totals.get("repro_audit_checks_total", 0.0)
    return " | ".join(
        [
            tile("repro_gateway_casts_total", "casts"),
            tile("repro_gateway_shed_total", "shed"),
            tile("repro_gateway_stream_events_total", "stream events"),
            f"queue {queue:,.0f} (high {queue_high:,.0f})",
            f"req p50 {p50} p99 {p99}",
            f"audits {audits:,.0f} ({checks:,.0f} checks)",
        ]
    )


def poll_loop(fetch, interval: float, iterations: int) -> None:
    previous: Optional[Dict[str, float]] = None
    previous_at = time.monotonic()
    for index in range(iterations):
        text = fetch()
        totals = parse_exposition(text)
        now = time.monotonic()
        print(f"[poll {index + 1}/{iterations}] {render_tiles(text, totals, previous, now - previous_at)}")
        previous, previous_at = totals, now
        if index + 1 < iterations:
            time.sleep(interval)


def _demo_gateway() -> Tuple[object, "threading.Event"]:
    """A loopback gateway plus a caster thread that keeps metrics moving."""
    import asyncio

    import repro.telemetry as telemetry
    from repro.gateway.client import CastingSession, GatewayClient
    from repro.gateway.routes import GatewayServer
    from repro.gateway.service import GatewayService, ServiceConfig

    telemetry.configure("mem")
    loop = asyncio.new_event_loop()
    threading.Thread(target=loop.run_forever, daemon=True).start()
    server = GatewayServer(GatewayService(ServiceConfig()))
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(60)

    stop = threading.Event()

    def caster() -> None:
        client = GatewayClient(port=server.port, client_id="demo-caster")
        client.create_election("demo", 8, 2)
        session = CastingSession(client, "demo")
        session.refresh()
        credential = session.register("voter-0000").credentials[0]
        choice = 0
        while not stop.is_set():
            session.cast([(credential, choice)])
            choice = 1 - choice
            stop.wait(0.05)
        client.close()

    threading.Thread(target=caster, daemon=True).start()
    return server, stop


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0, help="gateway port (0: start a demo)")
    parser.add_argument("--interval", type=float, default=1.0, help="seconds between polls")
    parser.add_argument("--iterations", type=int, default=5, help="polls before exiting")
    args = parser.parse_args()

    from repro.gateway.client import GatewayClient

    demo_stop: Optional[threading.Event] = None
    host, port = args.host, args.port
    if port == 0:
        server, demo_stop = _demo_gateway()
        host, port = "127.0.0.1", server.port  # type: ignore[attr-defined]
        print(f"started demo gateway on {host}:{port}")

    client = GatewayClient(host=host, port=port, client_id="dashboard")
    try:
        poll_loop(client.metrics, args.interval, args.iterations)
    finally:
        client.close()
        if demo_stop is not None:
            demo_stop.set()


if __name__ == "__main__":
    main()
