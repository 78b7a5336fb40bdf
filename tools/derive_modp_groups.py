"""Derive the modp-2048 and modp-3072 Schnorr-group parameters from their published seed.

usage: PYTHONPATH=src python tools/derive_modp_groups.py [--check]

Without ``--check`` it prints the derived ``p``, ``q`` and ``g`` of both
presets as hex.  With ``--check`` it re-derives them and exits 1 unless
they equal the constants checked into ``repro.crypto.modp_group``.

The search follows FIPS 186-4 §A.1.1.2 with SHA-256 (domain separated by a
label byte string, not bit-for-bit the standard's ``domain_parameter_seed``
arithmetic):

* ``q`` is the first prime among ``SHA-256(seed ‖ "q" ‖ counter)`` with its top
  and bottom bits set, ``counter`` a 4-byte big-endian integer from 0.  Both
  presets share this 256-bit ``q``.
* For an ``L``-bit ``p``, ``X`` is the top-bit-set ``L``-bit integer read from
  ``SHA-256(seed ‖ "p" ‖ L ‖ counter ‖ j)`` blocks (``L`` 2 bytes, ``counter``
  4 bytes, block index ``j`` 2 bytes), and ``p = X − (X mod 2q − 1)``: the
  first counter whose ``p`` has ``L`` bits and is prime wins.
* ``g = h^((p − 1)/q) mod p`` for the smallest ``h ≥ 2`` giving ``g ≠ 1``.

Primality is Miller–Rabin through ``repro.crypto.modp_group._is_probable_prime``
behind a gcd against the primes below 2^14.  On a 2-vCPU host, pure Python,
the 2048-bit search takes about 2 s and the 3072-bit one about 6 s.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import sys
import time

from repro.crypto import modp_group
from repro.crypto.modp_group import _is_probable_prime

SEED = modp_group.SCHNORR_SEED
Q_BITS = 256


def _small_primes_product(bound: int = 1 << 14) -> int:
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return math.prod(i for i in range(3, bound) if sieve[i])


_SMALL = _small_primes_product()


def _probable_prime(n: int) -> bool:
    return math.gcd(n, _SMALL) == 1 and _is_probable_prime(n)


def derive_q(seed: bytes = SEED) -> int:
    counter = 0
    while True:
        digest = hashlib.sha256(seed + b"q" + counter.to_bytes(4, "big")).digest()
        q = int.from_bytes(digest, "big") | (1 << (Q_BITS - 1)) | 1
        if _probable_prime(q):
            return q
        counter += 1


def derive_p(bits: int, q: int, seed: bytes = SEED) -> int:
    blocks = -(-bits // 256)
    counter = 0
    while True:
        prefix = seed + b"p" + bits.to_bytes(2, "big") + counter.to_bytes(4, "big")
        wide = b"".join(hashlib.sha256(prefix + j.to_bytes(2, "big")).digest() for j in range(blocks))
        x = int.from_bytes(wide, "big") % (1 << (bits - 1)) + (1 << (bits - 1))
        p = x - (x % (2 * q) - 1)
        if p.bit_length() == bits and _probable_prime(p):
            return p
        counter += 1


def derive_g(p: int, q: int) -> int:
    h = 2
    while True:
        g = pow(h, (p - 1) // q, p)
        if g != 1:
            return g
        h += 1


def derive(bits: int, seed: bytes = SEED):
    """``(p, q, g)`` for the ``bits``-bit preset."""
    q = derive_q(seed)
    p = derive_p(bits, q, seed)
    return p, q, derive_g(p, q)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true", help="fail unless the derivation equals the checked-in constants")
    args = parser.parse_args(argv)
    failed = False
    for bits in sorted(modp_group.SCHNORR_PRESETS):
        start = time.perf_counter()
        p, q, g = derive(bits)
        took = time.perf_counter() - start
        if args.check:
            expected = modp_group.SCHNORR_PRESETS[bits]
            ok = (p, q, g) == expected
            failed |= not ok
            print(f"modp-{bits}: {'matches' if ok else 'DIFFERS FROM'} the checked-in constants ({took:.1f} s)")
        else:
            print(f"# modp-{bits} ({took:.1f} s)\np = {p:#x}\nq = {q:#x}\ng = {g:#x}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
