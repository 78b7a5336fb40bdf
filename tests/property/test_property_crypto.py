"""Property-based tests (hypothesis) on the cryptographic substrate."""

import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.chaum_pedersen import (
    ChaumPedersenProver,
    ChaumPedersenStatement,
    chaum_pedersen_verify,
    simulate_chaum_pedersen,
)
from repro.crypto.ed25519 import ed25519_group
from repro.crypto.elgamal import ElGamal
from repro.crypto.modp_group import modp_group_256, modp_group_2048, testing_group
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign, schnorr_verify
from repro.crypto.shamir import reconstruct_secret, split_secret
from repro.runtime.precompute import FixedBaseTable, _comb_table

GROUP = testing_group()
ELGAMAL = ElGamal(GROUP)
ORDER = GROUP.order

scalars = st.integers(min_value=1, max_value=ORDER - 1)
small_ints = st.integers(min_value=0, max_value=500)

FAST = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestGroupProperties:
    @FAST
    @given(a=scalars, b=scalars)
    def test_exponent_homomorphism(self, a, b):
        assert GROUP.power(a) * GROUP.power(b) == GROUP.power((a + b) % ORDER)

    @FAST
    @given(a=scalars)
    def test_inverse_cancels(self, a):
        element = GROUP.power(a)
        assert element * element.inverse() == GROUP.identity

    @FAST
    @given(a=scalars)
    def test_encoding_roundtrip(self, a):
        element = GROUP.power(a)
        assert GROUP.element_from_bytes(element.to_bytes()) == element

    @FAST
    @given(a=scalars, b=scalars)
    def test_diffie_hellman_symmetry(self, a, b):
        assert GROUP.power(a) ** b == GROUP.power(b) ** a


#: How a drawn seed becomes a scalar: the edges of ``[0, q)`` and both sides of them.
_SCALAR_KINDS = {
    "zero": lambda q, seed: 0,
    "one": lambda q, seed: 1,
    "q-1": lambda q, seed: q - 1,
    "q": lambda q, seed: q,
    "q+1": lambda q, seed: q + 1,
    "minus-one": lambda q, seed: -1,
    "negative": lambda q, seed: -(seed % q) - 1,
    "2^252-1": lambda q, seed: 2**252 - 1,
    "2^252+1": lambda q, seed: 2**252 + 1,
    ">2q": lambda q, seed: 2 * q + 1 + seed % q,
    "random": lambda q, seed: seed % q,
}
_BASE_KINDS = {
    "identity": lambda group, seed: group.identity,
    "generator": lambda group, seed: group.generator,
    "element": lambda group, seed: group.generator.exponentiate(seed % group.order),
}


class TestSharedBasePowersProperties:
    """``group.shared_base_powers`` is ``[base.exponentiate(s) for s in scalars]``, whatever the planner picks."""

    @pytest.mark.parametrize(
        "group_factory", [testing_group, modp_group_256, modp_group_2048, ed25519_group],
        ids=["toy", "modp256", "modp2048", "ed25519"],
    )
    @settings(max_examples=12, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        base_kind=st.sampled_from(sorted(_BASE_KINDS)),
        base_seed=st.integers(1, 2**256),
        draws=st.lists(
            st.tuples(st.sampled_from(sorted(_SCALAR_KINDS)), st.integers(0, 2**2050)), min_size=0, max_size=8
        ),
        repeat=st.booleans(),
    )
    def test_equals_per_scalar_exponentiation(self, group_factory, base_kind, base_seed, draws, repeat):
        group = group_factory()
        base = _BASE_KINDS[base_kind](group, base_seed)
        exponents = [_SCALAR_KINDS[kind](group.order, seed) for kind, seed in draws]
        if repeat and exponents:
            exponents.append(exponents[0])  # K in 0..9, one scalar twice
        assert group.shared_base_powers(base, exponents) == [base.exponentiate(s) for s in exponents]


def _binary_ladder(base, scalar):
    """The reference: most-significant-bit-first double-and-add through ``operate`` alone."""
    result = base.group.identity
    for bit in bin(scalar % base.group.order)[2:]:
        result = result.operate(result)
        if bit == "1":
            result = result.operate(base)
    return result


@functools.lru_cache(maxsize=None)
def _differential_base(group_factory):
    """One non-generator base a group, with its planned comb and four more geometries (two windowed)."""
    base = group_factory().hash_to_element(b"differential")
    geometries = [(1, 1), (5, 1), (3, 7), (8, 8)]  # (teeth, step)
    return base, [FixedBaseTable(base)] + [_comb_table(base, *geometry) for geometry in geometries]


class TestKernelsAgainstABinaryLadder:
    """Plain power, fixed-base table, shared-base ladder and one-term multi-exp are one function."""

    GROUPS = pytest.mark.parametrize(
        "group_factory", [testing_group, modp_group_256, ed25519_group], ids=["toy", "modp256", "ed25519"]
    )

    @staticmethod
    def _check(group_factory, scalars):
        group = group_factory()
        base, tables = _differential_base(group_factory)
        expected = [_binary_ladder(base, scalar) for scalar in scalars]
        assert [base.exponentiate(scalar) for scalar in scalars] == expected
        assert [base ** scalar for scalar in scalars] == expected
        for table in tables:
            assert [table.power(scalar) for scalar in scalars] == expected
        assert group.shared_base_powers(base, scalars) == expected
        assert [group.multi_exponentiate([base], [scalar]) for scalar in scalars] == expected
        assert [element.to_bytes() for element in group.shared_base_powers(base, scalars)] == [
            element.to_bytes() for element in expected
        ]

    @GROUPS
    def test_on_the_edges_of_the_scalar_range(self, group_factory):
        order = group_factory().order
        self._check(group_factory, [kind(order, 12345) for _, kind in sorted(_SCALAR_KINDS.items())])

    @GROUPS
    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seeds=st.lists(st.integers(-(2**260), 2**260), min_size=1, max_size=3))
    def test_on_random_scalars(self, group_factory, seeds):
        self._check(group_factory, seeds)


class TestElGamalProperties:
    @FAST
    @given(secret=scalars, message_exponent=scalars, randomness=scalars)
    def test_decryption_inverts_encryption(self, secret, message_exponent, randomness):
        keys = ELGAMAL.keygen(secret)
        message = GROUP.power(message_exponent)
        assert ELGAMAL.decrypt(secret, ELGAMAL.encrypt(keys.public, message, randomness)) == message

    @FAST
    @given(secret=scalars, message_exponent=scalars, r1=scalars, r2=scalars)
    def test_reencryption_preserves_plaintext(self, secret, message_exponent, r1, r2):
        keys = ELGAMAL.keygen(secret)
        message = GROUP.power(message_exponent)
        ciphertext = ELGAMAL.encrypt(keys.public, message, r1)
        assert ELGAMAL.decrypt(secret, ELGAMAL.reencrypt(keys.public, ciphertext, r2)) == message

    @FAST
    @given(secret=scalars, a=small_ints, b=small_ints)
    def test_homomorphic_addition(self, secret, a, b):
        keys = ELGAMAL.keygen(secret)
        combined = ELGAMAL.encrypt_int(keys.public, a).multiply(ELGAMAL.encrypt_int(keys.public, b))
        assert ELGAMAL.decrypt_int(secret, combined, max_value=1000) == a + b


class TestSchnorrProperties:
    @FAST
    @given(secret=scalars, message=st.binary(min_size=0, max_size=64))
    def test_signatures_always_verify(self, secret, message):
        keys = schnorr_keygen(GROUP, secret)
        assert schnorr_verify(keys.public, message, schnorr_sign(keys, message))

    @FAST
    @given(secret=scalars, message=st.binary(min_size=1, max_size=32), other=st.binary(min_size=1, max_size=32))
    def test_signature_does_not_transfer_between_messages(self, secret, message, other):
        if message == other:
            return
        keys = schnorr_keygen(GROUP, secret)
        assert not schnorr_verify(keys.public, other, schnorr_sign(keys, message))


class TestChaumPedersenProperties:
    @FAST
    @given(witness=scalars, challenge=st.integers(min_value=0, max_value=ORDER - 1))
    def test_honest_proofs_always_verify(self, witness, challenge):
        h = GROUP.hash_to_element(b"h")
        statement = ChaumPedersenStatement(GROUP.generator, h, GROUP.power(witness), h ** witness)
        prover = ChaumPedersenProver(statement, witness)
        prover.commit()
        assert chaum_pedersen_verify(prover.respond(challenge))

    @FAST
    @given(
        log_g=scalars,
        log_h=scalars,
        challenge=st.integers(min_value=0, max_value=ORDER - 1),
    )
    def test_simulated_proofs_always_verify_even_for_false_statements(self, log_g, log_h, challenge):
        h = GROUP.hash_to_element(b"h")
        statement = ChaumPedersenStatement(GROUP.generator, h, GROUP.power(log_g), h ** log_h)
        assert chaum_pedersen_verify(simulate_chaum_pedersen(statement, challenge))


class TestShamirProperties:
    @FAST
    @given(
        secret=st.integers(min_value=0, max_value=ORDER - 1),
        threshold=st.integers(min_value=1, max_value=5),
        extra=st.integers(min_value=0, max_value=3),
    )
    def test_any_threshold_subset_reconstructs(self, secret, threshold, extra):
        num_shares = threshold + extra
        shares = split_secret(secret, threshold, num_shares, ORDER)
        assert reconstruct_secret(shares[:threshold], ORDER) == secret
        assert reconstruct_secret(shares[-threshold:], ORDER) == secret
