"""Fig. 4 from a trace: TRIP registrations under a ``mem`` sink, read back per phase and component.

Registration reports through :mod:`repro.telemetry` like the rest of the
stack: every step is a ``registration.phase`` span (``phase`` is one of
:data:`PHASES`), with the step's ``registration.scan`` spans (duration: the
real QR decode; ``wire_bytes``: what a scanner transfers) and
``registration.print`` spans (the printed sizes) inside it.  The spans carry
measured time and raw sizes only; a :class:`~figures.hardware.HardwareProfile`
turns one phase span and its children into the four components of Fig. 4:

* **Crypto & Logic** — the phase span's self time, times the CPU multiplier;
* **QR Read/Write** — the scan spans' own time, times the CPU multiplier;
* **QR Scan** — the scanner's transfer, modelled from ``wire_bytes``;
* **QR Print** — the printer, modelled from the printed sizes: mechanical
  time plus rendering on the wall clock, rendering alone on the CPU.

On the CPU clock a scan costs :data:`~figures.hardware.SCAN_CPU_SHARE` of its
transfer; crypto, decoding and rendering cost what they cost on the wall.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Any, Dict, List, Sequence

from figures.hardware import SCAN_CPU_SHARE, HardwareProfile, print_lines
from repro import telemetry
from repro.registration.protocol import RegistrationSession
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter

PHASES = ("CheckIn", "Authorization", "RealToken", "FakeToken", "CheckOut", "Activation")
CRYPTO, QR_READ_WRITE, QR_SCAN, QR_PRINT = COMPONENTS = ("Crypto & Logic", "QR Read/Write", "QR Scan", "QR Print")

Event = Dict[str, Any]
#: Seconds per phase, then per component.
Table = Dict[str, Dict[str, float]]


def trace_registrations(setup: ElectionSetup, voters: Sequence[Voter]) -> List[List[Event]]:
    """Register ``voters`` one after another at one registrar site; each one's span events.

    The registrations run under a ``mem`` sink; telemetry is ``off`` afterwards.
    """
    session = RegistrationSession(setup=setup)
    sink = telemetry.configure("mem", propagate=False).sink
    try:
        traces = []
        for voter in voters:
            session.register(voter)
            traces.append(sink.take())
        return traces
    finally:
        telemetry.configure("off", propagate=False)


def phase_components(events: Sequence[Event], profile: HardwareProfile, cpu: bool = False) -> Table:
    """One registration's seconds per phase and component on ``profile`` (wall clock, or CPU)."""
    spans = [event for event in events if event.get("type") == "span"]
    children: Dict[str, List[Event]] = defaultdict(list)
    for span in spans:
        children[span.get("parent_id")].append(span)
    table: Table = {}
    for span in spans:
        if span["name"] != "registration.phase":
            continue
        row = table.setdefault(span["attrs"]["phase"], dict.fromkeys(COMPONENTS, 0.0))
        inner = children[span["span_id"]]
        row[CRYPTO] += (span["duration"] - sum(child["duration"] for child in inner)) * profile.cpu_multiplier
        for child in inner:
            attrs = child.get("attrs", {})
            if child["name"] == "registration.scan":
                row[QR_READ_WRITE] += child["duration"] * profile.cpu_multiplier
                transfer = profile.scan_seconds(attrs["wire_bytes"])
                row[QR_SCAN] += transfer * SCAN_CPU_SHARE if cpu else transfer
            elif child["name"] == "registration.print":
                lines = print_lines(attrs["qr_codes"], attrs["qr_version_sum"], attrs["barcodes"], attrs["text_lines"])
                render = profile.print_cpu_seconds(lines)
                row[QR_PRINT] += render if cpu else profile.print_seconds(lines) + render
    return table


def median_by_phase_component(traces: Sequence[Sequence[Event]], profile: HardwareProfile, cpu: bool = False) -> Table:
    """Per phase and component, the median over registrations of :func:`phase_components`."""
    tables = [phase_components(events, profile, cpu) for events in traces]
    return {
        phase: {
            component: statistics.median(table[phase][component] for table in tables if phase in table)
            for component in COMPONENTS
        }
        for phase in PHASES
        if any(phase in table for table in tables)
    }


def component_totals(table: Table) -> Dict[str, float]:
    """Seconds per component, summed over phases."""
    return {component: sum(row[component] for row in table.values()) for component in COMPONENTS}
