"""Security games and analyses from §5 and Appendix F.

* :mod:`repro.security.analysis` — the analytic individual-verifiability
  bound (Theorem IV), its iteration over many target voters, and the
  malicious-kiosk detection probabilities quoted in §7.5.
* :mod:`repro.security.malicious_kiosk` — kiosk adversaries: a kiosk that
  claims a fake credential is real (wrong Σ-protocol order), a kiosk that
  swaps in its own credential, and an envelope-stuffing registrar.
* :mod:`repro.security.games` — executable versions of Game IV (individual
  verifiability) and of the coercion-resistance real/ideal comparison,
  driven against the actual library implementation.
* :mod:`repro.security.adversary` — the coercer model used by the games and
  the examples.
"""
