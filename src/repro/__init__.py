"""repro — a reproduction of TRIP/Votegral (SOSP 2025).

TRIP is a coercion-resistant, verifiable voter-registration scheme in which a
kiosk in a privacy booth issues real and fake paper credentials.  Real
credentials carry a *sound* interactive zero-knowledge proof (Chaum–Pedersen
Σ-protocol executed commit → challenge → response); fake credentials carry a
forged transcript produced with the honest-verifier simulator (challenge known
before the commit).  The two are indistinguishable on paper, so only the voter
— who observed the printing order in the booth — knows which credential is
real.

The package provides:

* ``repro.crypto``        — the cryptographic substrate (groups, ElGamal,
  Schnorr signatures, Σ-protocols, DKG, verifiable shuffles, PETs, tagging).
* ``repro.ledger``        — the tamper-evident public bulletin board behind
  a versioned, backend-pluggable API (memory / SQLite / write-behind batched)
  with typed append commands and cursor-based reads.
* ``repro.registration``  — the TRIP registration protocol (the paper's core
  contribution).
* ``repro.voting`` / ``repro.tally`` / ``repro.election`` — the surrounding
  Votegral pipeline.
* ``repro.security``      — the formal games (individual verifiability,
  coercion resistance) and analytic bounds.
* ``repro.telemetry``     — dependency-free tracing and metrics for every
  layer above (spans, counters, merged fleet snapshots, a trace summarizer).

The paper-figure apparatus — hardware profiles, the baselines' cost models and
the §7.5 user-study model — lives beside the figure scripts in
``benchmarks/figures``; nothing here imports it.
"""

from repro.errors import (
    ReproError,
    VerificationError,
    LedgerError,
    ProtocolError,
    RegistrationError,
)
from repro import telemetry
from repro.telemetry import TelemetrySnapshot, telemetry_from_spec

__version__ = "1.0.0"

__all__ = [
    "ReproError",
    "VerificationError",
    "LedgerError",
    "ProtocolError",
    "RegistrationError",
    "TelemetrySnapshot",
    "telemetry",
    "telemetry_from_spec",
    "__version__",
]
