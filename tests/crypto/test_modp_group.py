"""Tests specific to the mod-p Schnorr-group backend."""

import dataclasses
import random

import pytest

from repro.crypto.modp_group import (
    modp_group_2048,
    modp_group_256,
    modp_group_3072,
    testing_group,
    _is_probable_prime,
)


class TestParameters:
    def test_testing_group_is_safe_prime(self):
        group = testing_group()
        assert _is_probable_prime(group.modulus)
        assert _is_probable_prime(group.order)
        assert group.modulus == 2 * group.order + 1

    def test_256_bit_group_is_safe_prime(self):
        group = modp_group_256()
        assert group.modulus.bit_length() == 256
        assert _is_probable_prime(group.order)

    @pytest.mark.parametrize("factory, bits", [(modp_group_2048, 2048), (modp_group_3072, 3072)])
    def test_large_presets_are_schnorr_groups_of_256_bit_order(self, factory, bits):
        """The checked-in constants, not the search (``tools/derive_modp_groups.py --check`` re-runs that)."""
        group = factory()
        p, q, g = int(group.modulus), group.order, int(group.generator.value)
        assert _is_probable_prime(p) and _is_probable_prime(q)
        assert p.bit_length() == bits and q.bit_length() == 256
        assert (p - 1) % q == 0
        assert g != 1 and pow(g, q, p) == 1

    def test_groups_are_cached_singletons(self):
        assert testing_group() is testing_group()

    def test_generator_is_quadratic_residue(self):
        group = testing_group()
        assert pow(group.generator.value, group.order, group.modulus) == 1


class TestMembership:
    def test_generated_elements_are_members(self):
        group = testing_group()
        for _ in range(10):
            assert group.is_member(group.power(group.random_scalar()))

    def test_non_member_detected(self):
        group = testing_group()
        # A generator of the full group Z_p* is not in the order-q subgroup.
        candidate = 7
        while pow(candidate, group.order, group.modulus) == 1:
            candidate += 1
        assert not group.is_member(group.element(candidate))

    def test_element_from_bytes_rejects_out_of_range(self):
        group = testing_group()
        too_large = (group.modulus + 5).to_bytes(group.element_bytes + 1, "big")
        with pytest.raises(ValueError):
            group.element_from_bytes(too_large)

    @pytest.mark.parametrize("factory", [modp_group_2048, modp_group_3072])
    def test_a_schnorr_group_refuses_p_minus_one_at_decode(self, factory):
        group = factory()
        with pytest.raises(ValueError, match="subgroup"):
            group.element_from_bytes((group.modulus - 1).to_bytes(group.element_bytes, "big"))

    @pytest.mark.parametrize("factory", [modp_group_2048, modp_group_3072])
    def test_a_schnorr_group_refuses_an_element_of_the_cofactor_subgroup(self, factory):
        """``x^q`` has order dividing the cofactor: in Z_p*, never in the order-q subgroup unless it is 1."""
        group, rng = factory(), random.Random(7)
        p, q = int(group.modulus), group.order
        refused = 0
        for _ in range(4):
            small = pow(rng.randrange(2, p - 1), q, p)
            if small == 1:
                continue
            with pytest.raises(ValueError, match="subgroup"):
                group.element_from_bytes(small.to_bytes(group.element_bytes, "big"))
            refused += 1
        assert refused

    @pytest.mark.parametrize("factory", [modp_group_2048, modp_group_3072, modp_group_256, testing_group])
    def test_members_round_trip(self, factory):
        group = factory()
        for element in (group.identity, group.generator, group.power(group.random_scalar())):
            assert group.element_from_bytes(element.to_bytes()) == element

    @pytest.mark.parametrize("factory", [testing_group, modp_group_256])
    def test_a_safe_prime_decode_computes_no_power(self, factory, monkeypatch):
        group = factory()
        encoded = [group.power(group.random_scalar()).to_bytes() for _ in range(8)]
        calls = []

        def counting_powmod(*args):
            calls.append(args)
            return pow(*args)

        monkeypatch.setattr(group, "_backend", dataclasses.replace(group._backend, powmod=counting_powmod))
        decoded = [group.element_from_bytes(data) for data in encoded]
        assert [element.to_bytes() for element in decoded] == encoded
        assert calls == []

    def test_hash_to_element_lands_in_the_subgroup(self):
        for group in (modp_group_2048(), testing_group()):
            element = group.hash_to_element(b"votegral")
            assert group.is_member(element) and element != group.identity

    def test_cross_group_operation_rejected(self):
        a = testing_group().power(3)
        b = modp_group_256().power(3)
        with pytest.raises(TypeError):
            a.operate(b)


class TestPrimalityHelper:
    @pytest.mark.parametrize("prime", [2, 3, 5, 97, 104729, 2**61 - 1])
    def test_accepts_primes(self, prime):
        assert _is_probable_prime(prime)

    @pytest.mark.parametrize("composite", [0, 1, 4, 100, 561, 2**61 - 3])
    def test_rejects_composites(self, composite):
        assert not _is_probable_prime(composite)
