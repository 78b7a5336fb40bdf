"""Property-based tests (hypothesis) on the runtime subsystem."""

from __future__ import annotations

import dataclasses
import functools

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.ed25519 import ed25519_group
from repro.crypto.elgamal import ElGamal
from repro.crypto.modp_group import modp_group_256, modp_group_2048, testing_group as toy_group
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.runtime.batch import (
    batch_reencryption_verify,
    batch_schnorr_verify,
    verify_signatures,
)
from repro.runtime.executor import SerialExecutor, chunk_evenly
from repro.runtime.precompute import FixedBaseTable, _comb_table

GROUP = toy_group()
ELGAMAL = ElGamal(GROUP)
ORDER = GROUP.order

scalars = st.integers(min_value=1, max_value=ORDER - 1)

FAST = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# Built once: signing 30+ fresh batches per example would dominate the suite.
_KEYPAIRS = [schnorr_keygen(GROUP) for _ in range(6)]
_SIGNED = [
    (kp.public, f"msg-{index}".encode(), schnorr_sign(kp, f"msg-{index}".encode()))
    for index, kp in enumerate(_KEYPAIRS)
]


#: Comb geometries as ``(teeth, step)`` (blocks cover the order): the windowed
#: tables at ``step = 1``, then combs narrow, square and single-block.
GEOMETRIES = [(1, 1), (4, 1), (5, 1), (2, 3), (3, 7), (8, 8), (6, 11)]


@functools.lru_cache(maxsize=None)
def _planned_table(group_factory):
    base = group_factory().hash_to_element(b"planned comb")
    return base, FixedBaseTable(base)


class TestFixedBaseTableProperties:
    @FAST
    @given(exponent=st.integers(min_value=-(2 * ORDER), max_value=2 * ORDER), geometry=st.sampled_from(GEOMETRIES))
    def test_table_power_matches_reference(self, exponent, geometry):
        table = _comb_table(GROUP.generator, *geometry)
        assert table.power(exponent) == GROUP.generator.exponentiate(exponent)

    @FAST
    @given(seed=st.binary(min_size=1, max_size=16), exponent=scalars)
    def test_arbitrary_bases(self, seed, exponent):
        base = GROUP.hash_to_element(seed)
        table = FixedBaseTable(base)
        assert table.power(exponent) == base.exponentiate(exponent)

    @pytest.mark.parametrize(
        "group_factory", [toy_group, modp_group_256, ed25519_group, modp_group_2048],
        ids=["toy", "modp256", "ed25519", "modp2048"],
    )
    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(-(2**2050), 2**2050))
    def test_planned_geometry_matches_reference(self, group_factory, seed):
        base, table = _planned_table(group_factory)
        assert table.power(seed) == base.exponentiate(seed)


class TestBatchRejectionProperties:
    @FAST
    @given(tamper_index=st.integers(0, len(_SIGNED) - 1), delta=scalars)
    def test_any_single_tampered_signature_is_rejected(self, tamper_index, delta):
        items = list(_SIGNED)
        public, message, signature = items[tamper_index]
        forged = dataclasses.replace(signature, response=(signature.response + delta) % ORDER)
        items[tamper_index] = (public, message, forged)
        assert batch_schnorr_verify(items) is False
        verdicts = verify_signatures(items, chunk_size=2)
        assert verdicts == [index != tamper_index for index in range(len(items))]

    @FAST
    @given(tamper_index=st.integers(0, 5), delta=scalars)
    def test_any_single_tampered_reencryption_is_rejected(self, tamper_index, delta):
        keypair = ELGAMAL.keygen(secret=424242)
        items = []
        for index in range(6):
            source = ELGAMAL.encrypt(keypair.public, GROUP.hash_to_element(bytes([index])), randomness=index + 1)
            randomness = (index * 7 + 5) % ORDER
            items.append((source, ELGAMAL.reencrypt(keypair.public, source, randomness), randomness))
        assert batch_reencryption_verify(ELGAMAL, keypair.public, items)
        source, target, randomness = items[tamper_index]
        items[tamper_index] = (source, target, (randomness + delta) % ORDER)
        assert batch_reencryption_verify(ELGAMAL, keypair.public, items) is False


class TestExecutorProperties:
    @FAST
    @given(items=st.lists(st.integers(), max_size=64), num_chunks=st.integers(1, 80))
    def test_chunking_partitions_in_order(self, items, num_chunks):
        chunks = chunk_evenly(items, num_chunks)
        assert [x for chunk in chunks for x in chunk] == items
        if items:
            sizes = [len(chunk) for chunk in chunks]
            assert min(sizes) >= 1
            assert max(sizes) - min(sizes) <= 1

    @FAST
    @given(items=st.lists(st.integers(min_value=-(10**6), max_value=10**6), max_size=40))
    def test_backends_agree_with_builtin_map(self, cluster_executor, items):
        assert (
            SerialExecutor().map(abs, items)
            == cluster_executor.map(abs, items, chunksize=3)
            == list(map(abs, items))
        )
