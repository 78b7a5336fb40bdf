"""Cryptographic substrate for the TRIP/Votegral reproduction.

Everything in Votegral runs over a cyclic group of prime order ``q`` with
generator ``g``.  The paper's prototype uses edwards25519 (via dedis/kyber);
this package exposes the same algebra behind an abstract :class:`~repro.crypto.group.Group`
interface with several interchangeable backends:

* :func:`repro.crypto.ed25519.ed25519_group` — the paper's curve, pure Python.
* :func:`repro.crypto.modp_group.modp_group_2048` — a 2048-bit Schnorr group of
  256-bit order (models the "large-modulus primitives" used by Civitas in §7.3).
* :func:`repro.crypto.modp_group.testing_group` — a small, *insecure* group for
  fast unit tests.

On top of the group the package provides ElGamal encryption, Schnorr
signatures, the interactive Chaum–Pedersen proof of discrete-log equality (the
Σ-protocol at the heart of TRIP, including the honest-verifier simulator used
to forge fake-credential transcripts), distributed key generation, verifiable
re-encryption shuffles, plaintext-equivalence tests and distributed
deterministic tagging.
"""
