"""ElGamal encryption over an abstract prime-order group.

TRIP encrypts the real credential's public key under the election authority's
collective public key to form the *public credential tag* ``c_pc`` (§4.2,
Appendix E.4).  The same scheme (with exponential message encoding) is used
for ballots in the voting/tallying pipeline and in every baseline system.

The implementation exposes:

* key generation, encryption, decryption;
* re-encryption (used by the mix cascade);
* the multiplicative homomorphism (used for blinding);
* decryption *shares* with Chaum–Pedersen correctness proofs, so a threshold
  of authority members can jointly decrypt with a publicly verifiable
  transcript.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.crypto.group import Group, GroupElement
from repro.errors import VerificationError

# Optional fixed-base accelerator for ``base ** scalar`` on hot bases (the
# election public key, above all), and the predicate saying which bases
# already have a table.  Installed by importing
# :mod:`repro.runtime.precompute`; left unset, the reference path runs.
_element_power_hook = None
_has_table_hook = None


def set_element_power_hook(hook, has_table=None) -> None:
    """Install (or clear, with ``None``) the fixed-base exponentiation hooks."""
    global _element_power_hook, _has_table_hook
    _element_power_hook = hook
    _has_table_hook = has_table


def key_power(base: GroupElement, scalar: int) -> GroupElement:
    """``base ** scalar`` for a base that may recur — an election or signer key.

    Through the installed hook (:func:`repro.runtime.precompute.element_power`)
    every call counts towards the base's automatic table build, so a key
    raised again and again ends up on a fixed-base table.
    """
    hook = _element_power_hook
    if hook is not None:
        return hook(base, scalar)
    return base.exponentiate(scalar)


def hot_power(base: GroupElement, scalar: int) -> GroupElement:
    """``base ** scalar`` for a prover, off a fixed-base table when one is warm.

    A Σ-protocol's bases are hot in one protocol and one-shot in the next:
    the kiosk proves on ``(g, A_pk)``, a tag chain on a ciphertext part.  The
    generator goes through :meth:`Group.power <repro.crypto.group.Group.
    power>` and a base that *already has* a table through :func:`key_power`;
    any other base is exponentiated plainly and leaves no trace — it is not
    counted towards an automatic table build, so a proof never causes one.
    :func:`~repro.crypto.chaum_pedersen.chaum_pedersen_verify` comes here
    for its two bases too: on TRIP's transcripts they are ``g`` and ``A_pk``.
    """
    if base == base.group.generator:
        return base.group.power(scalar)
    has_table = _has_table_hook
    if has_table is not None and has_table(base):
        return key_power(base, scalar)
    return base.exponentiate(scalar)


@dataclass(frozen=True)
class ElGamalKeyPair:
    """A private/public ElGamal key pair."""

    secret: int
    public: GroupElement

    @property
    def group(self) -> Group:
        return self.public.group


@dataclass(frozen=True)
class ElGamalCiphertext:
    """An ElGamal ciphertext ``(c1, c2) = (g^r, pk^r · m)``."""

    c1: GroupElement
    c2: GroupElement

    @property
    def group(self) -> Group:
        return self.c1.group

    def to_bytes(self) -> bytes:
        return self.c1.to_bytes() + self.c2.to_bytes()

    def multiply(self, other: "ElGamalCiphertext") -> "ElGamalCiphertext":
        """Homomorphic combination: encrypts the product of the plaintexts."""
        return ElGamalCiphertext(self.c1 * other.c1, self.c2 * other.c2)

    def exponentiate(self, scalar: int) -> "ElGamalCiphertext":
        """Raise the plaintext to ``scalar`` (used for blinding)."""
        return ElGamalCiphertext(self.c1 ** scalar, self.c2 ** scalar)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ElGamalCiphertext)
            and self.c1 == other.c1
            and self.c2 == other.c2
        )

    def __hash__(self) -> int:
        return hash((self.c1, self.c2))


def decryption_share_challenge(
    public_share: GroupElement,
    ciphertext: ElGamalCiphertext,
    share: GroupElement,
    commitment_g: GroupElement,
    commitment_c1: GroupElement,
) -> int:
    """The Fiat–Shamir challenge of one member's decryption-share proof."""
    return public_share.group.hash_to_scalar(
        b"elgamal-decryption-share",
        public_share.to_bytes(),
        share.to_bytes(),
        commitment_g.to_bytes(),
        commitment_c1.to_bytes(),
        ciphertext.to_bytes(),
    )


@dataclass(frozen=True)
class DecryptionShare:
    """One authority member's partial decryption ``c1^sk_i`` with a proof."""

    share: GroupElement
    commitment_g: GroupElement
    commitment_c1: GroupElement
    response: int


class ElGamal:
    """ElGamal over a :class:`~repro.crypto.group.Group`."""

    def __init__(self, group: Group):
        self.group = group

    # Key management ---------------------------------------------------------

    def keygen(self, secret: Optional[int] = None) -> ElGamalKeyPair:
        sk = secret if secret is not None else self.group.random_scalar()
        return ElGamalKeyPair(secret=sk, public=self.group.power(sk))

    # Core operations ---------------------------------------------------------

    def encrypt(
        self,
        public_key: GroupElement,
        message: GroupElement,
        randomness: Optional[int] = None,
    ) -> ElGamalCiphertext:
        r = randomness if randomness is not None else self.group.random_scalar()
        return ElGamalCiphertext(self.group.power(r), key_power(public_key, r) * message)

    def decrypt(self, secret_key: int, ciphertext: ElGamalCiphertext) -> GroupElement:
        return ciphertext.c2 * (ciphertext.c1 ** secret_key).inverse()

    def encrypt_int(
        self,
        public_key: GroupElement,
        value: int,
        randomness: Optional[int] = None,
    ) -> ElGamalCiphertext:
        """Exponential ElGamal: encrypt g**value (homomorphic in the exponent)."""
        return self.encrypt(public_key, self.group.encode_int(value), randomness)

    def decrypt_int(self, secret_key: int, ciphertext: ElGamalCiphertext, max_value: int = 10_000) -> int:
        return self.group.decode_int(self.decrypt(secret_key, ciphertext), max_value)

    def reencrypt(
        self,
        public_key: GroupElement,
        ciphertext: ElGamalCiphertext,
        randomness: Optional[int] = None,
    ) -> ElGamalCiphertext:
        """Refresh the randomness of a ciphertext without knowing the plaintext."""
        r = randomness if randomness is not None else self.group.random_scalar()
        return ElGamalCiphertext(
            ciphertext.c1 * self.group.power(r),
            ciphertext.c2 * key_power(public_key, r),
        )

    def encrypt_identity(self, public_key: GroupElement, randomness: Optional[int] = None) -> ElGamalCiphertext:
        """An encryption of the identity element (a "zero" ciphertext)."""
        return self.encrypt(public_key, self.group.identity, randomness)

    # Threshold decryption -----------------------------------------------------

    def decryption_shares(
        self,
        secret_shares: Sequence[int],
        ciphertext: ElGamalCiphertext,
        public_shares: Optional[Sequence[GroupElement]] = None,
    ) -> List[DecryptionShare]:
        """Every member's ``c1^sk_i`` with its Chaum–Pedersen proof of correctness.

        Each proof shows log_g(pk_i) == log_c1(share_i), i.e. the member used
        the same secret it committed to at DKG time.  ``public_shares`` are
        those commitments ``g^sk_i`` (they enter the challenge hashes); a
        caller that holds them passes them in, otherwise they are recomputed.

        This is the one threshold-share routine: all ``2M`` powers of ``c1``
        — every member's proof nonce ``w_i``, then every secret — come off
        one :meth:`~repro.crypto.group.Group.shared_base_powers` call, the
        ``g^w_i`` off the generator table.  Nonces are drawn first, one per
        member in member order, which is the order a member-by-member loop
        draws them in.
        """
        group = self.group
        nonces = [group.random_scalar() for _ in secret_shares]
        powers = group.shared_base_powers(ciphertext.c1, [*nonces, *secret_shares])
        if public_shares is None:
            public_shares = [group.power(secret_share) for secret_share in secret_shares]
        shares: List[DecryptionShare] = []
        for w, secret_share, public_share, commitment_c1, share in zip(
            nonces, secret_shares, public_shares, powers, powers[len(nonces) :]
        ):
            commitment_g = group.power(w)
            challenge = decryption_share_challenge(public_share, ciphertext, share, commitment_g, commitment_c1)
            response = (w + challenge * secret_share) % group.order
            shares.append(DecryptionShare(share, commitment_g, commitment_c1, response))
        return shares

    def combine_decryption_shares(
        self,
        ciphertext: ElGamalCiphertext,
        public_shares: Sequence[GroupElement],
        shares: Sequence[DecryptionShare],
        verify: bool = True,
    ) -> GroupElement:
        """Combine additive decryption shares into the plaintext.

        With additive key sharing (the DKG in :mod:`repro.crypto.dkg`), the
        full decryption factor is the product of all members' ``c1^sk_i``.
        """
        if len(public_shares) != len(shares):
            raise ValueError("mismatched share lists")
        if verify:
            # Every member's proof equations fold into one RLC product
            # (Bellare–Garay–Rabin small exponents), bisected only on
            # rejection to name the offending member.
            from repro.crypto.chaum_pedersen import verify_decryption_share
            from repro.runtime.batch import batch_decryption_share_verify, fold_verdicts

            items = [(public_share, ciphertext, share) for public_share, share in zip(public_shares, shares)]
            verdicts = fold_verdicts(items, verify_decryption_share, batch_decryption_share_verify)
            if not all(verdicts):
                raise VerificationError(f"invalid decryption share from member {verdicts.index(False)}")
        factor = self.group.identity
        for share in shares:
            factor = factor * share.share
        return ciphertext.c2 * factor.inverse()
