"""Fixed-base precomputation: correctness, auto-build policy, transparency."""

from __future__ import annotations

import hashlib
import os
import random
import subprocess
import sys

import pytest

from repro.crypto.bigint import available_backends
from repro.crypto.ed25519 import ed25519_group
from repro.crypto.modp_group import ModPElement, modp_group_256, modp_group_2048, testing_group as toy_group
from repro.crypto.multiexp import comb_budget
from repro.runtime import precompute
from repro.runtime.precompute import (
    AUTO_BUILD_THRESHOLD,
    FixedBaseTable,
    _comb_table,
    clear_tables,
    element_power,
    num_cached_tables,
    set_precompute_enabled,
    warm_fixed_base,
)

GROUPS = [toy_group, modp_group_256, ed25519_group, modp_group_2048]
GROUP_IDS = ["toy", "modp256", "ed25519", "modp2048"]


@pytest.fixture(autouse=True)
def fresh_precompute_state():
    """Isolate the global table cache and enable flag per test."""
    clear_tables()
    previous = set_precompute_enabled(True)
    yield
    clear_tables()
    set_precompute_enabled(previous)


@pytest.fixture(scope="module")
def big_group():
    return modp_group_256()


class TestFixedBaseTable:
    def test_matches_square_and_multiply(self, big_group):
        rng = random.Random(0xF1BA)
        table = FixedBaseTable(big_group.generator)
        for _ in range(16):
            exponent = rng.randrange(big_group.order)
            assert table.power(exponent) == big_group.generator.exponentiate(exponent)

    def test_edge_exponents(self, big_group):
        table = FixedBaseTable(big_group.generator)
        assert table.power(0) == big_group.identity
        assert table.power(1) == big_group.generator
        assert table.power(big_group.order) == big_group.identity
        assert table.power(big_group.order - 1) == big_group.generator.exponentiate(-1)
        assert table.power(-5) == big_group.generator.exponentiate(-5)

    @pytest.mark.parametrize("geometry", [None, (4, 1), (1, 1), (8, 8), (3, 7)], ids=str)
    def test_arbitrary_base(self, big_group, geometry):
        base = big_group.hash_to_element(b"some hot base")
        table = FixedBaseTable(base) if geometry is None else _comb_table(base, *geometry)
        for exponent in (2, 3, 12345, big_group.order // 3):
            assert table.power(exponent) == base.exponentiate(exponent)

    def test_works_on_toy_group_when_built_directly(self):
        group = toy_group()
        table = FixedBaseTable(group.generator)
        for exponent in (0, 1, 2, 97, group.order - 1):
            assert table.power(exponent) == group.generator.exponentiate(exponent)

    @pytest.mark.parametrize("group_factory", GROUPS, ids=GROUP_IDS)
    def test_planned_comb_on_the_edges_of_the_scalar_range(self, group_factory):
        group = group_factory()
        base = group.hash_to_element(b"edges")
        table, order = FixedBaseTable(base), group.order
        for scalar in (0, 1, 2, order - 1, order, order + 1, 2 * order + 3, -1, -order - 2, 2 ** (order.bit_length() - 1)):
            assert table.power(scalar) == base.exponentiate(scalar)

    @pytest.mark.parametrize("group_factory", [modp_group_256, ed25519_group], ids=["modp256", "ed25519"])
    def test_rows_are_native_values_and_a_power_wraps_once(self, group_factory, monkeypatch):
        """Built and walked on the group's kernel ops: no element is made per step."""
        group = group_factory()
        base = group.hash_to_element(b"native rows")
        element_type = type(base)
        monkeypatch.setattr(element_type, "operate", None)  # any per-step wrapping would raise TypeError
        table = FixedBaseTable(base)
        native = group.unwrap(base)
        assert table._rows[0][1] == native and type(table._rows[0][1]) is type(native)
        bits = group.order.bit_length()
        assert table.teeth * table.blocks * table.step >= bits > table.teeth * (table.blocks - 1) * table.step
        assert table.num_group_elements == sum(len(row) - 1 for row in table._rows) <= comb_budget(bits)
        wrapped = []
        monkeypatch.setattr(type(group), "wrap", lambda self, value: wrapped.append(value) or element_type(value, self))
        assert table.power(group.order - 7) == base.exponentiate(-7)
        assert len(wrapped) == 1
        assert table.power(0) == group.identity and table.power(group.order) == group.identity


#: Powers of one base through a planned comb, printed as a digest so runs on
#: two big-integer backends compare byte for byte.
_COMB_DIGEST = """
import hashlib
from repro.crypto.bigint import active_backend
from repro.crypto.modp_group import modp_group_256, modp_group_2048
from repro.runtime.precompute import FixedBaseTable

digest, geometries = hashlib.sha256(), []
for factory in (modp_group_256, modp_group_2048):
    group = factory()
    table = FixedBaseTable(group.hash_to_element(b"comb digest"))
    geometries.append(f"{table.teeth}x{table.blocks}x{table.step}")
    for scalar in (0, 1, group.order - 1, -3, 0xC0FFEE << 1000, 3 ** 1200):
        digest.update(table.power(scalar).to_bytes())
print(active_backend().name, ",".join(geometries), digest.hexdigest())
"""


def _comb_digest(backend: str) -> list:
    environment = dict(os.environ, PYTHONPATH="src", REPRO_BIGINT=backend)
    result = subprocess.run(
        [sys.executable, "-c", _COMB_DIGEST], capture_output=True, text=True, env=environment,
        cwd=os.path.join(os.path.dirname(__file__), "..", ".."),
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.split()


class TestAcrossBackends:
    """A planned comb publishes the same bytes on every backend and in every geometry."""

    def test_planned_comb_matches_the_windowed_table_here(self):
        name, geometries, digest = _comb_digest("python")
        reference = hashlib.sha256()
        for factory in (modp_group_256, modp_group_2048):
            group = factory()
            table = _comb_table(group.hash_to_element(b"comb digest"), 5, 1)
            for scalar in (0, 1, group.order - 1, -3, 0xC0FFEE << 1000, 3 ** 1200):
                reference.update(table.power(scalar).to_bytes())
        assert name == "python"
        assert not any(geometry.endswith("x1") for geometry in geometries.split(","))  # both planned step > 1
        assert digest == reference.hexdigest()

    @pytest.mark.skipif("gmpy2" not in available_backends(), reason="gmpy2 not installed")
    def test_gmpy2_comb_is_bit_identical_to_python(self):
        python_run, gmpy2_run = _comb_digest("python"), _comb_digest("gmpy2")
        assert gmpy2_run[0] == "gmpy2" and gmpy2_run[2] == python_run[2]


class TestTransparentCache:
    def test_auto_build_after_threshold(self, big_group):
        base = big_group.hash_to_element(b"auto-build")
        assert num_cached_tables() == 0
        for index in range(AUTO_BUILD_THRESHOLD + 2):
            assert element_power(base, 41 + index) == base.exponentiate(41 + index)
        assert num_cached_tables() == 1

    def test_warm_builds_immediately_and_results_match(self, big_group):
        table = warm_fixed_base(big_group.generator)
        assert table is not None
        assert num_cached_tables() == 1
        assert element_power(big_group.generator, 99) == big_group.generator.exponentiate(99)

    def test_small_groups_are_left_alone(self):
        group = toy_group()
        assert warm_fixed_base(group.generator) is None
        assert element_power(group.generator, 123) == group.generator.exponentiate(123)
        assert num_cached_tables() == 0

    def test_disabled_flag_bypasses_tables(self, big_group):
        set_precompute_enabled(False)
        assert warm_fixed_base(big_group.generator) is None
        for _ in range(AUTO_BUILD_THRESHOLD + 2):
            element_power(big_group.generator, 7)
        assert num_cached_tables() == 0

    def test_full_cache_evicts_least_recently_used(self, big_group, monkeypatch):
        monkeypatch.setattr(precompute, "MAX_TABLES", 2)
        bases = [big_group.hash_to_element(bytes([index])) for index in range(3)]
        for base in bases:
            assert warm_fixed_base(base) is not None
        assert num_cached_tables() == 2
        # The oldest base fell out but still computes correctly (rebuild path).
        for base in bases:
            assert element_power(base, 321) == base.exponentiate(321)
        # Touching a cached base protects it from the next eviction.
        warm_fixed_base(bases[1])
        warm_fixed_base(big_group.hash_to_element(b"newcomer"))
        assert element_power(bases[1], 55) == bases[1].exponentiate(55)
        assert num_cached_tables() == 2

    def test_group_power_hook_uses_table(self, big_group):
        warm_fixed_base(big_group.generator)
        # group.power goes through the installed accelerator hook; the result
        # must be indistinguishable from the reference path.
        for exponent in (5, 2**200 + 3, big_group.order - 2):
            assert big_group.power(exponent) == big_group.generator.exponentiate(exponent)

    def test_elgamal_encrypt_decrypt_with_tables(self, big_group):
        from repro.crypto.elgamal import ElGamal

        elgamal = ElGamal(big_group)
        keypair = elgamal.keygen()
        warm_fixed_base(keypair.public)
        message = big_group.hash_to_element(b"hello tables")
        ciphertext = elgamal.encrypt(keypair.public, message)
        assert elgamal.decrypt(keypair.secret, ciphertext) == message
        refreshed = elgamal.reencrypt(keypair.public, ciphertext)
        assert elgamal.decrypt(keypair.secret, refreshed) == message

    def test_encrypt_identical_with_and_without_tables(self, big_group):
        from repro.crypto.elgamal import ElGamal

        elgamal = ElGamal(big_group)
        keypair = elgamal.keygen(secret=31337)
        message = big_group.hash_to_element(b"determinism")
        randomness = 0xDEADBEEF
        set_precompute_enabled(False)
        reference = elgamal.encrypt(keypair.public, message, randomness=randomness)
        set_precompute_enabled(True)
        warm_fixed_base(keypair.public)
        warm_fixed_base(big_group.generator)
        accelerated = elgamal.encrypt(keypair.public, message, randomness=randomness)
        assert accelerated == reference


class TestProversUseWarmTables:
    """``hot_power``: provers read tables that exist, and never cause one."""

    @staticmethod
    def _count_powers(monkeypatch):
        calls = {"table": 0, "plain": 0}
        table_power, exponentiate = FixedBaseTable.power, ModPElement.exponentiate

        def counted_table_power(self, scalar):
            calls["table"] += 1
            return table_power(self, scalar)

        def counted_exponentiate(self, scalar):
            calls["plain"] += 1
            return exponentiate(self, scalar)

        monkeypatch.setattr(FixedBaseTable, "power", counted_table_power)
        monkeypatch.setattr(ModPElement, "exponentiate", counted_exponentiate)
        return calls

    def test_kiosk_proofs_on_warm_bases_cost_no_plain_exponentiation_on_them(self, big_group, monkeypatch):
        from repro.crypto.chaum_pedersen import (
            ChaumPedersenProver, ChaumPedersenStatement, chaum_pedersen_verify, simulate_chaum_pedersen,
        )

        authority_key = big_group.generator.exponentiate(777)
        warm_fixed_base(big_group.generator)
        warm_fixed_base(authority_key)
        x = 424242
        statement = ChaumPedersenStatement(
            big_group.generator, authority_key, big_group.generator.exponentiate(x), authority_key.exponentiate(x)
        )
        calls = self._count_powers(monkeypatch)

        prover = ChaumPedersenProver(statement, x)
        prover.commit(nonce=99)
        real = prover.respond(12345)
        assert calls == {"table": 2, "plain": 0}
        fake = simulate_chaum_pedersen(statement, challenge=12345, response=678)
        assert calls == {"table": 4, "plain": 2}  # value_g ** e and value_h ** e stay plain
        # A simulator that made the statement (C1 = g^x, X = h^x · g^0) needs neither.
        assert simulate_chaum_pedersen(statement, challenge=12345, response=678, witness=(x, 0)) == fake
        assert calls == {"table": 7, "plain": 2}

        monkeypatch.undo()
        set_precompute_enabled(False)
        reference = ChaumPedersenProver(statement, x)
        reference.commit(nonce=99)
        assert reference.respond(12345) == real
        assert simulate_chaum_pedersen(statement, challenge=12345, response=678) == fake
        assert chaum_pedersen_verify(real) and chaum_pedersen_verify(fake)

    def test_a_cold_proof_base_is_neither_counted_nor_built(self, big_group):
        from repro.crypto.chaum_pedersen import ChaumPedersenStatement, chaum_pedersen_verify, fiat_shamir_prove
        from repro.crypto.dlog_proof import prove_dlog, verify_dlog
        from repro.crypto.elgamal import hot_power

        cold = big_group.hash_to_element(b"a ciphertext part")
        other = big_group.hash_to_element(b"another")
        for _ in range(2 * AUTO_BUILD_THRESHOLD):
            statement = ChaumPedersenStatement(cold, other, cold.exponentiate(5), other.exponentiate(5))
            assert chaum_pedersen_verify(fiat_shamir_prove(statement, 5))
            assert verify_dlog(prove_dlog(cold, 5))
            assert hot_power(cold, 9) == cold.exponentiate(9)
        assert num_cached_tables() == 0
        assert not precompute._usage
        assert not precompute.has_table(cold)

    def test_ballot_proofs_read_the_election_key_table(self, big_group, monkeypatch):
        from repro.crypto.schnorr import schnorr_keygen
        from repro.voting.ballot import audit_ballot, make_ballot

        authority_key = big_group.generator.exponentiate(31337)
        warm_fixed_base(big_group.generator)
        warm_fixed_base(authority_key)
        credential = schnorr_keygen(big_group)
        calls = self._count_powers(monkeypatch)
        ballot = make_ballot(big_group, authority_key, credential, choice=1, num_options=3)
        # The voter knows the encryption randomness, so even the two simulated
        # options are powers of g and the election key: every one is a lookup.
        assert calls == {"table": 14, "plain": 0}
        monkeypatch.undo()
        assert audit_ballot(big_group, authority_key, ballot, 3).ok
