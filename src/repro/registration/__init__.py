"""TRIP — the paper's registration protocol (the core contribution).

The registration workflow (§3.2, Appendix E) walks a voter through:

1. **Check-in** — an official verifies eligibility and issues a barcode
   check-in ticket authorized with a MAC under a key shared with the kiosks.
2. **Privacy booth** — the voter interacts with the kiosk:

   * **real credential** (4 steps, *sound* Σ-protocol order): scan ticket →
     kiosk prints the commit QR with a random symbol → voter picks an
     envelope with the matching symbol and scans its challenge QR → kiosk
     prints the check-out and response QRs;
   * **fake credentials** (2 steps, *unsound* order): the voter scans an
     envelope first, then the kiosk prints the whole receipt using the
     honest-verifier simulator.

3. **Check-out** — the official scans the check-out QR through the
   envelope's window and posts the registration record to the ledger.
4. **Activation** — at home, the voter's device (VSD) scans the three
   activation QRs, re-verifies every signature and the ZKP transcript,
   cross-checks the ledger and stores the credential's secret key.

The modules mirror the actors: :mod:`repro.registration.kiosk`,
:mod:`repro.registration.official`, :mod:`repro.registration.envelope_printer`,
:mod:`repro.registration.vsd`, :mod:`repro.registration.voter`, with the
physical artefacts in :mod:`repro.registration.materials` and the end-to-end
orchestration in :mod:`repro.registration.protocol`.
"""
