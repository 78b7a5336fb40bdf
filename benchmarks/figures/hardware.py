"""Hardware profiles for the four evaluation platforms of §7.1, and the printer and scanner models.

The paper measures TRIP on:

* **L1** — Point-of-Sale kiosk (quad-core Cortex-A17, 2 GB RAM), the slowest
  platform at 19.7 s total voter-observable latency;
* **L2** — Raspberry Pi 4 (Cortex-A72, 4 GB RAM);
* **H1** — MacBook Pro M1 Max VM, the fastest platform at 15.8 s;
* **H2** — Beelink GTR7 (Ryzen 7840HS).

All platforms drive the same EPSON TM-T20III receipt printer and a Bluetooth
QR scanner, so the *mechanical* latencies are similar across platforms, while
CPU-bound work (crypto, QR encode/decode, print-job rendering) is up to 260 %
slower on the L-class devices, and print rendering specifically ≈380 % slower
(§7.2).  Each profile therefore carries:

* ``cpu_multiplier`` — scales measured Python CPU time for crypto/QR work;
* ``print_render_multiplier`` — extra CPU factor for print-job rendering;
* ``print_seconds_per_line`` / ``print_fixed_seconds`` — the thermal printer's
  mechanical speed;
* ``scan_seconds_per_byte`` / ``scan_fixed_seconds`` — the Bluetooth transfer
  cost that makes each QR scan ≈0.95 s on average (§7.2: the scan is
  dominated by moving the payload off the scanner, not by decoding it).

A printed QR code takes receipt lines that grow with its version (physical
size), a 1-D barcode two lines and a text label one; :func:`print_lines`
turns the sizes a ``registration.print`` span records into lines.

The multipliers are calibrated against the published medians, not measured on
the original hardware; ``docs/architecture.md`` ("Substitutions") records this.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

_LINES_BASE_QR = 3.0
_LINES_PER_QR_VERSION = 0.45
_LINES_PER_BARCODE = 2.0

#: Share of a scan's transfer time the host spends on the CPU (user + system).
SCAN_CPU_SHARE = 0.05


def print_lines(qr_codes: int, qr_version_sum: int, barcodes: int, text_lines: int) -> int:
    """Receipt lines of one print job, from the sizes its span records."""
    return int(round(
        text_lines + _LINES_BASE_QR * qr_codes + _LINES_PER_QR_VERSION * qr_version_sum
        + _LINES_PER_BARCODE * barcodes
    ))


@dataclass(frozen=True)
class HardwareProfile:
    """A simulated deployment platform."""

    key: str
    name: str
    description: str
    resource_constrained: bool
    cpu_multiplier: float
    print_render_multiplier: float
    print_fixed_seconds: float
    print_seconds_per_line: float
    scan_fixed_seconds: float
    scan_seconds_per_byte: float

    def scan_seconds(self, wire_bytes: int) -> float:
        """Mechanical + transfer latency for scanning one code."""
        return self.scan_fixed_seconds + self.scan_seconds_per_byte * wire_bytes

    def print_seconds(self, lines: int) -> float:
        """Mechanical latency for printing ``lines`` of receipt content."""
        return self.print_fixed_seconds + self.print_seconds_per_line * lines

    def print_cpu_seconds(self, lines: int) -> float:
        """CPU time spent rendering the print job (CUPS pipeline in the paper)."""
        base = 0.02 + 0.008 * lines
        return base * self.print_render_multiplier


HARDWARE_PROFILES: Dict[str, HardwareProfile] = {
    "L1": HardwareProfile(
        key="L1",
        name="Point-of-Sale Kiosk",
        description="Quad-core Cortex-A17, 2 GB RAM, Linaro",
        resource_constrained=True,
        cpu_multiplier=3.6,
        print_render_multiplier=7.0,
        print_fixed_seconds=0.42,
        print_seconds_per_line=0.125,
        scan_fixed_seconds=0.55,
        scan_seconds_per_byte=0.0010,
    ),
    "L2": HardwareProfile(
        key="L2",
        name="Raspberry Pi 4",
        description="Quad-core Cortex-A72, 4 GB RAM, Raspberry Pi OS",
        resource_constrained=True,
        cpu_multiplier=2.6,
        print_render_multiplier=5.2,
        print_fixed_seconds=0.41,
        print_seconds_per_line=0.123,
        scan_fixed_seconds=0.52,
        scan_seconds_per_byte=0.0010,
    ),
    "H1": HardwareProfile(
        key="H1",
        name="MacBook Pro (M1 Max VM)",
        description="Parallels VM, 4 cores, 8 GB RAM, Ubuntu 22.04",
        resource_constrained=False,
        cpu_multiplier=1.0,
        print_render_multiplier=1.0,
        print_fixed_seconds=0.40,
        print_seconds_per_line=0.12,
        scan_fixed_seconds=0.49,
        scan_seconds_per_byte=0.0010,
    ),
    "H2": HardwareProfile(
        key="H2",
        name="Beelink GTR7",
        description="AMD Ryzen 7840HS, 32 GB RAM, Ubuntu 22.04",
        resource_constrained=False,
        cpu_multiplier=1.1,
        print_render_multiplier=1.1,
        print_fixed_seconds=0.40,
        print_seconds_per_line=0.121,
        scan_fixed_seconds=0.50,
        scan_seconds_per_byte=0.0010,
    ),
}


def hardware_profile(key: str) -> HardwareProfile:
    """Look up a profile by its key (L1, L2, H1, H2)."""
    try:
        return HARDWARE_PROFILES[key]
    except KeyError as exc:
        raise KeyError(f"unknown hardware profile {key!r}; choose from {sorted(HARDWARE_PROFILES)}") from exc
