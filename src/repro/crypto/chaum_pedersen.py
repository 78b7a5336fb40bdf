"""Chaum–Pedersen proof of discrete-log equality — TRIP's core Σ-protocol.

The kiosk must convince the voter that the public credential tag

    c_pc = (C1, C2) = (g^x, A_pk^x · c_pk)

really encrypts the credential's public key ``c_pk`` under the authority key
``A_pk``.  Equivalently, with ``X = C2 / c_pk``, the kiosk proves knowledge of
``x`` such that ``C1 = g^x`` and ``X = A_pk^x`` — a proof of equality of
discrete logarithms (ZKPoE, Appendix E.1).

* :class:`ChaumPedersenProver` runs the **sound** interactive protocol used
  for real credentials: the commit is fixed before the challenge is known and
  the response requires the witness ``x``.
* :func:`simulate_chaum_pedersen` runs the honest-verifier **simulator** used
  for fake credentials: given the challenge first, it fabricates a transcript
  that verifies although no witness exists (Fig. 9b of the paper).
* :func:`chaum_pedersen_verify` checks a transcript; it accepts real and fake
  transcripts alike — by design, the transcript alone cannot reveal which is
  which.
* :func:`fiat_shamir_challenge` is the non-interactive variant's challenge:
  the tally's tagging steps (:mod:`repro.crypto.tagging`) hash their
  transcripts with it, and :func:`fiat_shamir_prove` is the one-shot prover
  those steps reproduce nonce for nonce.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple, Union

from repro.crypto.elgamal import DecryptionShare, ElGamalCiphertext, decryption_share_challenge, hot_power
from repro.crypto.group import ElementEncoding, Group, GroupElement
from repro.crypto.hashing import scalar_bytes
from repro.errors import ProtocolError


@dataclass(frozen=True)
class ChaumPedersenStatement:
    """The public statement: ``C1 = g^x`` and ``X = h^x`` for bases (g, h)."""

    base_g: GroupElement
    base_h: GroupElement
    value_g: GroupElement  # C1
    value_h: GroupElement  # X

    def to_bytes(self) -> bytes:
        return (
            self.base_g.to_bytes()
            + self.base_h.to_bytes()
            + self.value_g.to_bytes()
            + self.value_h.to_bytes()
        )

    @property
    def group(self) -> Group:
        return self.base_g.group


@dataclass(frozen=True)
class ChaumPedersenCommit:
    """The prover's first move ``(Y1, Y2) = (g^y, h^y)`` (as printed, possibly still bytes)."""

    commit_g: Union[GroupElement, ElementEncoding]
    commit_h: Union[GroupElement, ElementEncoding]

    def to_bytes(self) -> bytes:
        return self.commit_g.to_bytes() + self.commit_h.to_bytes()


@dataclass(frozen=True)
class ChaumPedersenTranscript:
    """A full (statement, commit, challenge, response) transcript.

    Printed on TRIP receipts; verifiable by anyone; silent about whether the
    commit or the challenge was chosen first.
    """

    statement: ChaumPedersenStatement
    commit: ChaumPedersenCommit
    challenge: int
    response: int

    def to_bytes(self) -> bytes:
        return (
            self.statement.to_bytes()
            + self.commit.to_bytes()
            + scalar_bytes(self.challenge)
            + scalar_bytes(self.response)
        )


class ChaumPedersenProver:
    """The sound, interactive prover used when issuing a *real* credential.

    The object enforces the Σ-protocol move order: :meth:`commit` must be
    called before :meth:`respond`, and :meth:`respond` requires the verifier's
    challenge.  A kiosk that wants to cheat cannot use this class — it has to
    use the simulator, which requires the challenge up front, and the voter
    can observe that difference in the physical printing order.
    """

    def __init__(self, statement: ChaumPedersenStatement, witness: int):
        self.statement = statement
        self.witness = witness
        self._nonce: Optional[int] = None
        self._commit: Optional[ChaumPedersenCommit] = None

    def commit(
        self, nonce: Optional[int] = None, commit_g: Optional[GroupElement] = None
    ) -> ChaumPedersenCommit:
        """First move: choose y and output (g^y, h^y).

        Both powers go through :func:`~repro.crypto.elgamal.hot_power`, so
        the generator and a warmed ``A_pk`` cost a table lookup.  A caller
        that already holds ``base_g ** nonce`` — it raised ``base_g`` to
        several exponents at once — passes it as ``commit_g`` with the nonce.
        """
        if self._commit is not None:
            raise ProtocolError("commit was already produced for this proof")
        if commit_g is not None and nonce is None:
            raise ProtocolError("a precomputed commit needs the nonce it was computed from")
        group = self.statement.group
        self._nonce = nonce if nonce is not None else group.random_scalar()
        self._commit = ChaumPedersenCommit(
            commit_g=commit_g if commit_g is not None else hot_power(self.statement.base_g, self._nonce),
            commit_h=hot_power(self.statement.base_h, self._nonce),
        )
        return self._commit

    def respond(self, challenge: int) -> ChaumPedersenTranscript:
        """Third move: r = y − e·x (mod q).  Requires :meth:`commit` first."""
        if self._commit is None or self._nonce is None:
            raise ProtocolError("respond() called before commit(): unsound order")
        group = self.statement.group
        response = (self._nonce - challenge * self.witness) % group.order
        return ChaumPedersenTranscript(
            statement=self.statement,
            commit=self._commit,
            challenge=challenge % group.order,
            response=response,
        )


def simulated_commit(
    base_g: GroupElement,
    base_h: GroupElement,
    witness: int,
    offset: int,
    challenge: int,
    response: int,
) -> ChaumPedersenCommit:
    """The simulator's commit for a statement whose maker is the one simulating.

    For ``C1 = g^x`` and ``X = h^x · g^δ`` — a ciphertext the prover encrypted
    itself, divided by a value that is off by ``g^δ`` — the simulated commit
    ``(g^r · C1^e, h^r · X^e)`` is ``(g^(r + x·e), h^(r + x·e) · g^(δ·e))``:
    the same two elements from :func:`~repro.crypto.elgamal.hot_power` alone,
    with no power of ``C1`` or ``X``.
    """
    order = base_g.group.order
    shared = (response + witness * challenge) % order
    return ChaumPedersenCommit(
        commit_g=hot_power(base_g, shared),
        commit_h=hot_power(base_h, shared) * hot_power(base_g, offset * challenge % order),
    )


def simulate_chaum_pedersen(
    statement: ChaumPedersenStatement,
    challenge: int,
    response: Optional[int] = None,
    witness: Optional[Tuple[int, int]] = None,
) -> ChaumPedersenTranscript:
    """Honest-verifier simulator: forge a verifying transcript from the challenge.

    Given the challenge ``e`` *before* committing, pick the response ``r`` at
    random and back-compute the commit ``(g^r·C1^e, h^r·X^e)``.  The resulting
    transcript satisfies the verification equations even though no witness is
    known — this is exactly how the kiosk prints fake credentials (Fig. 9b).

    A simulator that built the statement passes ``witness = (x, δ)`` with
    ``C1 = g^x`` and ``X = h^x · g^δ`` and gets the same commit off the two
    bases (:func:`simulated_commit`).
    """
    group = statement.group
    r = response if response is not None else group.random_scalar()
    e = challenge % group.order
    if witness is not None:
        commit = simulated_commit(statement.base_g, statement.base_h, *witness, e, r)
    else:
        commit = ChaumPedersenCommit(
            commit_g=hot_power(statement.base_g, r) * (statement.value_g ** e),
            commit_h=hot_power(statement.base_h, r) * (statement.value_h ** e),
        )
    return ChaumPedersenTranscript(statement=statement, commit=commit, challenge=e, response=r)


def chaum_pedersen_commitment(
    statement: ChaumPedersenStatement, challenge: int, response: int
) -> ChaumPedersenCommit:
    """``(Y1', Y2') = (g^r·C1^e, h^r·X^e)``: the commit a challenge and response imply.

    The bases go through :func:`~repro.crypto.elgamal.hot_power` (TRIP's
    ``g`` and ``A_pk`` are on tables); ``C1`` and ``X`` are raised plainly.
    """
    return ChaumPedersenCommit(
        commit_g=hot_power(statement.base_g, response) * (statement.value_g ** challenge),
        commit_h=hot_power(statement.base_h, response) * (statement.value_h ** challenge),
    )


def chaum_pedersen_verify(transcript: ChaumPedersenTranscript) -> bool:
    """Check ``Y1 = g^r·C1^e`` and ``Y2 = h^r·X^e`` by recomputing and comparing encodings.

    The transcript's commit may be elements or, read off a QR code, their
    bytes (:class:`~repro.crypto.group.ElementEncoding`); either way it is
    only ever compared with :func:`chaum_pedersen_commitment`.
    """
    recomputed = chaum_pedersen_commitment(transcript.statement, transcript.challenge, transcript.response)
    return commits_match(recomputed, transcript.commit)


def commits_match(recomputed: ChaumPedersenCommit, printed: ChaumPedersenCommit) -> bool:
    """Whether ``printed`` is ``recomputed``, encoding by encoding.

    Field by field: a printed field's bytes may have any length, so the
    concatenations could agree where the fields do not.
    """
    return (
        recomputed.commit_g.to_bytes() == printed.commit_g.to_bytes()
        and recomputed.commit_h.to_bytes() == printed.commit_h.to_bytes()
    )


def decryption_share_transcript(
    public_share: GroupElement, ciphertext: ElGamalCiphertext, share: DecryptionShare
) -> ChaumPedersenTranscript:
    """A decryption share's proof as a Chaum–Pedersen transcript — the one
    statement of its equations, for the one-by-one check and the fold alike.

    The share proves ``log_g(pk_i) == log_c1(share)`` with an addition-form
    response ``r = w + e·sk``: ``g^r == commit_g · pk_i^e``, which is the
    subtraction form ``base^r · value^{-e} == commit`` with challenge ``-e``.
    """
    group = public_share.group
    challenge = decryption_share_challenge(
        public_share, ciphertext, share.share, share.commitment_g, share.commitment_c1
    )
    return ChaumPedersenTranscript(
        statement=ChaumPedersenStatement(
            base_g=group.generator, base_h=ciphertext.c1, value_g=public_share, value_h=share.share
        ),
        commit=ChaumPedersenCommit(commit_g=share.commitment_g, commit_h=share.commitment_c1),
        challenge=(-challenge) % group.order,
        response=share.response,
    )


def verify_decryption_share(public_share: GroupElement, ciphertext: ElGamalCiphertext, share: DecryptionShare) -> bool:
    """Whether one member's share ``c1^sk_i`` carries a valid proof."""
    return chaum_pedersen_verify(decryption_share_transcript(public_share, ciphertext, share))


# ---------------------------------------------------------------------------
# Non-interactive (Fiat–Shamir) variant
# ---------------------------------------------------------------------------


def fiat_shamir_challenge(statement: ChaumPedersenStatement, commit: ChaumPedersenCommit, context: bytes) -> int:
    return statement.group.hash_to_scalar(
        b"chaum-pedersen-fiat-shamir",
        context,
        statement.to_bytes(),
        commit.to_bytes(),
    )


def fiat_shamir_prove(
    statement: ChaumPedersenStatement,
    witness: int,
    context: bytes = b"",
) -> ChaumPedersenTranscript:
    """A non-interactive proof (challenge = hash of commit).

    TRIP deliberately does **not** hand such a proof to the voter for
    credential realness — a NIZK would be transferable to a coercer (§4.3's
    straw-man).  It is the plain-power reference that
    :meth:`~repro.crypto.tagging.TaggingAuthority.blinding_material`
    reproduces transcript for transcript under the same nonces.
    """
    prover = ChaumPedersenProver(statement, witness)
    commit = prover.commit()
    challenge = fiat_shamir_challenge(statement, commit, context)
    return prover.respond(challenge)
