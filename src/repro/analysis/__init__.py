"""repro.analysis — domain-aware static analysis for the reproduction.

A dependency-free lint engine built on :mod:`ast` that machine-checks the
invariants the rest of the codebase enforces only by convention: secrets
never reach log lines (REP001), protocol/tally/crypto paths stay
bit-deterministic (REP002), ``pickle.loads`` stays inside the restricted
unpickler (REP003), no blocking I/O or executor fan-out runs under a lock
(REP004), telemetry names come from the central registry (REP005),
domain exceptions are never silently swallowed (REP006), and environment
variables are read only through the knob table in ``repro.spec`` (REP007).

Run it as a CLI (the blocking CI gate)::

    PYTHONPATH=src python -m repro.analysis src/repro
    PYTHONPATH=src python -m repro.analysis --format json src/repro

Suppress a reviewed false positive inline::

    with worker.send_lock:  # repro: noqa[REP004] - leaf lock, see comment
        send_frame(...)

or record it in the checked-in baseline (``analysis-baseline.json``) with a
``justification`` — the CLI fails on any finding that is neither suppressed
nor baselined.
"""
