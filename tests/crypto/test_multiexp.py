"""Tests for the Straus/Pippenger multi-exponentiation kernels, the
shared-base (one base, many exponents) kernel, the signed-window plain power,
and their integration behind :meth:`Group.multi_exponentiate` /
:meth:`Group.shared_base_powers`.

The kernels are exercised twice over: directly, on a toy additive group
where ``∏ b_i^{e_i}`` is just ``Σ e_i·b_i mod m`` (so every window width and
both algorithms can be checked exhaustively and fast), and through the real
group backends where the planner picks the algorithm.
"""

import random

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.crypto.ed25519 import Ed25519Group, ed25519_group
from repro.crypto.group import Group
from repro.crypto.modp_group import (
    MULTIEXP_MIN_ORDER_BITS,
    ModPElement,
    modp_group_256,
    modp_group_2048,
    testing_group,
)
from repro.crypto.multiexp import (
    GroupOps,
    MAX_WINDOW_BITS,
    _signed_digits,
    collapse_terms,
    pippenger_multi_exponentiate,
    plan_multi_exponentiation,
    plan_shared_base_powers,
    shared_base_powers,
    signed_window_cost,
    signed_window_power,
    straus_multi_exponentiate,
)

FAST = settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
SLOW_GROUP = settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])

# A toy *additive* group: values are integers mod M, "multiplication" is
# addition, "exponentiation" is scalar multiplication.  The kernels never
# assume anything beyond the GroupOps contract, so correctness here implies
# the windowing/bucket logic is right; the backend tests below then only
# need to pin the wiring.
_M = 1_000_003
ADDITIVE = GroupOps(
    identity=0,
    multiply=lambda a, b: (a + b) % _M,
    advance=lambda a, k: (a << k) % _M,
    invert=lambda a: (-a) % _M,
)
ADDITIVE_NO_INVERT = GroupOps(
    identity=0,
    multiply=lambda a, b: (a + b) % _M,
    advance=lambda a, k: (a << k) % _M,
)


def _additive_expected(values, scalars):
    return sum(value * scalar for value, scalar in zip(values, scalars)) % _M


class TestKernels:
    @FAST
    @given(
        terms=st.lists(
            st.tuples(st.integers(0, _M - 1), st.integers(0, 2**64)), min_size=0, max_size=12
        ),
        window=st.integers(1, 8),
    )
    def test_straus_matches_direct_sum(self, terms, window):
        values = [value for value, _ in terms]
        scalars = [scalar for _, scalar in terms]
        result = straus_multi_exponentiate(ADDITIVE, values, scalars, window)
        assert result == _additive_expected(values, scalars)

    @FAST
    @given(
        terms=st.lists(
            st.tuples(st.integers(0, _M - 1), st.integers(0, 2**64)), min_size=0, max_size=12
        ),
        window=st.integers(1, 8),
        signed=st.booleans(),
    )
    def test_pippenger_matches_direct_sum(self, terms, window, signed):
        values = [value for value, _ in terms]
        scalars = [scalar for _, scalar in terms]
        ops = ADDITIVE if signed else ADDITIVE_NO_INVERT
        result = pippenger_multi_exponentiate(ops, values, scalars, window)
        assert result == _additive_expected(values, scalars)

    def test_kernels_reject_zero_window(self):
        with pytest.raises(ValueError):
            straus_multi_exponentiate(ADDITIVE, [1], [1], 0)
        with pytest.raises(ValueError):
            pippenger_multi_exponentiate(ADDITIVE, [1], [1], 0)

    def test_unsigned_pippenger_at_window_one(self):
        # window=1 cannot use signed digits (the carry never terminates on
        # odd scalars); the kernel must silently fall back to unsigned even
        # though an invert hook is available.
        result = pippenger_multi_exponentiate(ADDITIVE, [3, 5], [7, 9], 1)
        assert result == (3 * 7 + 5 * 9) % _M

    @FAST
    @given(
        base=st.integers(0, _M - 1),
        scalars=st.lists(st.integers(0, 2**64), min_size=0, max_size=9),
        window=st.integers(1, 8),
        signed=st.booleans(),
    )
    def test_shared_base_powers_match_each_scalar(self, base, scalars, window, signed):
        ops = ADDITIVE if signed else ADDITIVE_NO_INVERT
        assert shared_base_powers(ops, base, scalars, window) == [base * scalar % _M for scalar in scalars]

    def test_shared_base_powers_rejects_zero_window(self):
        with pytest.raises(ValueError):
            shared_base_powers(ADDITIVE, 1, [1], 0)

    @FAST
    @given(base=st.integers(0, _M - 1), scalar=st.one_of(st.integers(0, 40), st.integers(0, 2**300)))
    def test_signed_window_power_matches_the_product(self, base, scalar):
        # Not reduced by anything: the kernel takes the scalar as given.
        assert signed_window_power(ADDITIVE, base, scalar) == base * scalar % _M

    def test_signed_window_power_needs_an_inversion(self):
        with pytest.raises(ValueError):
            signed_window_power(ADDITIVE_NO_INVERT, 3, 5)


class TestSignedDigits:
    @FAST
    @given(scalar=st.integers(0, 2**256), window=st.integers(2, 10))
    def test_reconstructs_scalar_within_bounds(self, scalar, window):
        digits = _signed_digits(scalar, window)
        half = 1 << (window - 1)
        assert all(-half <= digit < half for digit in digits)
        assert sum(digit << (index * window) for index, digit in enumerate(digits)) == scalar

    def test_window_one_rejected(self):
        with pytest.raises(ValueError):
            _signed_digits(3, 1)


class TestPlanner:
    def test_degenerate_inputs_stay_naive(self):
        assert plan_multi_exponentiation(0, 256).algorithm == "naive"
        assert plan_multi_exponentiation(4, 0).algorithm == "naive"

    def test_single_term_with_native_pow_stays_naive(self):
        # With a cheap native exponentiation (mod-p backends) one term can't
        # be beaten from Python.  (With the generic 1.5·bits ladder cost a
        # single-term Straus — i.e. plain sliding-window — *is* cheaper, so
        # no naive assertion is made there.)
        plan = plan_multi_exponentiation(1, 2048, exponentiate_cost=0.87 * 2048)
        assert plan.algorithm == "naive"

    def test_medium_batch_prefers_straus(self):
        plan = plan_multi_exponentiation(64, 2048)
        assert plan.algorithm == "straus"
        assert 1 <= plan.window <= MAX_WINDOW_BITS

    def test_huge_batch_prefers_pippenger(self):
        # Past the Straus table-memory guard only Pippenger remains viable.
        plan = plan_multi_exponentiation(5000, 2048)
        assert plan.algorithm == "pippenger"

    def test_estimate_beats_naive_when_switching(self):
        naive_cost = 64 * 1.5 * 2048
        plan = plan_multi_exponentiation(64, 2048)
        assert plan.estimated_operations < naive_cost


class TestSharedBasePlanner:
    def test_one_scalar_shares_nothing(self):
        for num_scalars in (0, 1):
            plan = plan_shared_base_powers(num_scalars, 2047, exponentiate_cost=0.87 * 2047, square_cost=0.8)
            assert plan.algorithm == "naive"
        assert plan_shared_base_powers(4, 0).algorithm == "naive"

    def test_two_full_width_scalars_already_share_a_ladder(self):
        # The costs ModPGroup passes at 2048 bits and Ed25519Group at 253.
        assert plan_shared_base_powers(2, 2047, exponentiate_cost=0.87 * 2047, square_cost=0.8).algorithm == "ladder"
        assert plan_shared_base_powers(2, 253, exponentiate_cost=1.5 * 253, invert_cost=0.1).algorithm == "ladder"

    def test_estimate_is_monotone_in_the_number_of_scalars(self):
        estimates = [
            plan_shared_base_powers(k, 2047, exponentiate_cost=0.87 * 2047, square_cost=0.8).estimated_operations
            for k in range(0, 33)
        ]
        assert estimates == sorted(estimates) and len(set(estimates)) == len(estimates)

    def test_estimate_never_exceeds_the_naive_cost(self):
        for k in (2, 4, 8, 64):
            plan = plan_shared_base_powers(k, 2047, exponentiate_cost=0.87 * 2047, square_cost=0.8)
            assert plan.estimated_operations < k * 0.87 * 2047
            assert 1 <= plan.window <= MAX_WINDOW_BITS


def _verdicts(costs, bits, exponentiate_cost=None):
    """(algorithm, window) of every plan a tally asks for at this width, under ``costs``."""
    exponentiate_cost = costs.exponentiate if exponentiate_cost is None else exponentiate_cost
    ladders = [
        plan_shared_base_powers(
            k, bits, exponentiate_cost=exponentiate_cost, square_cost=costs.square, invert_cost=costs.ladder_invert
        )
        for k in (2, 4, 8, 16)
    ]
    products = [
        plan_multi_exponentiation(
            n, bits, exponentiate_cost=exponentiate_cost, square_cost=costs.square, invert_cost=costs.invert
        )
        for n in (2, 4, 16, 64, 1024)
    ]
    return [(plan.algorithm, plan.window) for plan in ladders + products]


class TestBackendCrossovers:
    """The constants each backend declares put the crossovers where they were measured."""

    def test_modp256_takes_the_ladder_from_two_scalars_up(self):
        group = modp_group_256()
        if group._backend.name != "python":
            pytest.skip("the measured constant is the python backend's")
        verdicts = _verdicts(group.kernel_costs(255), 255)
        assert [algorithm for algorithm, _ in verdicts[:4]] == ["ladder"] * 4
        assert all(algorithm != "naive" for algorithm, _ in verdicts[4:])

    def test_modp2048_verdicts_are_those_of_the_old_constant(self):
        costs = modp_group_2048().kernel_costs(2047)
        assert _verdicts(costs, 2047) == _verdicts(costs, 2047, exponentiate_cost=0.87 * 2047)
        assert all(algorithm != "naive" for algorithm, _ in _verdicts(costs, 2047))

    def test_small_groups_decline_every_kernel(self):
        assert testing_group().kernel_costs(62) is None

    def test_the_curve_prices_its_power_from_the_signed_window_count(self):
        costs = ed25519_group().kernel_costs(253)
        assert costs.exponentiate is None and costs.ladder_invert is not None
        assert signed_window_cost(253, costs.square) < 1.5 * 253 * costs.square
        assert [algorithm for algorithm, _ in _verdicts(costs, 253)[:4]] == ["ladder"] * 4


class TestCollapseTerms:
    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            collapse_terms(97, [1, 2], [3], key=lambda b: b)

    def test_merges_duplicates_and_drops_zeros(self):
        terms = collapse_terms(97, [5, 5, 7, 9], [40, 60, 0, 97], key=lambda b: b)
        assert terms == [(5, 3)]  # 40+60 = 100 ≡ 3 (mod 97); 0 and 97≡0 drop

    def test_negative_scalars_reduce_into_range(self):
        terms = collapse_terms(97, [5], [-1], key=lambda b: b)
        assert terms == [(5, 96)]


@pytest.fixture(params=["toy", "modp256", "ed25519"])
def any_group(request):
    return {
        "toy": testing_group,
        "modp256": modp_group_256,
        "ed25519": ed25519_group,
    }[request.param]()


class TestGroupMultiExponentiate:
    """The ISSUE's edge-case checklist, across every backend."""

    def test_empty_terms_yield_identity(self, any_group):
        assert any_group.multi_exponentiate([], []) == any_group.identity

    def test_single_term(self, any_group):
        base = any_group.power(12345)
        assert any_group.multi_exponentiate([base], [7]) == base.exponentiate(7)

    def test_duplicate_bases_merge(self, any_group):
        base = any_group.power(42)
        other = any_group.power(99)
        expected = base.exponentiate(10).operate(other.exponentiate(5))
        assert any_group.multi_exponentiate([base, other, base], [3, 5, 7]) == expected

    def test_zero_scalars_vanish(self, any_group):
        base = any_group.power(42)
        assert any_group.multi_exponentiate([base, base], [0, 0]) == any_group.identity

    def test_negative_scalar_is_inverse(self, any_group):
        base = any_group.power(42)
        assert any_group.multi_exponentiate([base], [-3]) == base.exponentiate(3).inverse()

    def test_scalar_at_or_above_order_reduces(self, any_group):
        order = any_group.order
        base = any_group.power(42)
        assert any_group.multi_exponentiate([base], [order]) == any_group.identity
        assert any_group.multi_exponentiate([base], [order + 5]) == base.exponentiate(5)

    def test_mismatched_lengths_raise(self, any_group):
        base = any_group.power(42)
        with pytest.raises(ValueError):
            any_group.multi_exponentiate([base], [1, 2])


class TestGenericSeam:
    """A backend that declares nothing still runs the kernels, over its elements."""

    class PlainGroup(Ed25519Group):
        kernel_ops = Group.kernel_ops
        kernel_costs = Group.kernel_costs
        wrap = Group.wrap
        unwrap = Group.unwrap

    def test_defaults_agree_with_the_native_backend(self):
        plain, native = self.PlainGroup(), ed25519_group()
        rng = random.Random(22)
        scalars = [rng.randrange(native.order) for _ in range(5)]
        bases = [native.power(rng.randrange(native.order)) for _ in range(5)]
        assert plain.multi_exponentiate(bases, scalars) == native.multi_exponentiate(bases, scalars)
        assert plain.shared_base_powers(bases[0], scalars) == native.shared_base_powers(bases[0], scalars)
        assert signed_window_power(plain.kernel_ops, bases[0], scalars[0]) == bases[0] ** scalars[0]


def _naive_fold(group, bases, scalars):
    result = group.identity
    for base, scalar in zip(bases, scalars):
        result = result.operate(base.exponentiate(scalar))
    return result


class TestNaiveEquivalenceProperty:
    """Hypothesis property: multi_exponentiate == the naive per-term fold."""

    @FAST
    @given(
        terms=st.lists(
            st.tuples(st.integers(1, 2**61), st.integers(-(2**62), 2**62)),
            min_size=0,
            max_size=10,
        )
    )
    def test_modp_matches_naive_fold(self, terms):
        group = testing_group()
        bases = [group.power(seed) for seed, _ in terms]
        scalars = [scalar for _, scalar in terms]
        assert group.multi_exponentiate(bases, scalars) == _naive_fold(group, bases, scalars)

    @SLOW_GROUP
    @given(
        terms=st.lists(
            st.tuples(st.integers(1, 2**252), st.integers(-(2**253), 2**253)),
            min_size=0,
            max_size=4,
        )
    )
    def test_ed25519_matches_naive_fold(self, terms):
        group = ed25519_group()
        bases = [group.power(seed) for seed, _ in terms]
        scalars = [scalar for _, scalar in terms]
        assert group.multi_exponentiate(bases, scalars) == _naive_fold(group, bases, scalars)

    @SLOW_GROUP
    @given(
        terms=st.lists(
            st.tuples(st.integers(1, 2**254), st.integers(-(2**255), 2**255)),
            min_size=0,
            max_size=6,
        )
    )
    def test_modp256_matches_naive_fold(self, terms):
        # Large enough (255-bit order) to take the real Straus/Pippenger
        # path rather than the small-group naive fallback.
        group = modp_group_256()
        bases = [group.power(seed) for seed, _ in terms]
        scalars = [scalar for _, scalar in terms]
        assert group.multi_exponentiate(bases, scalars) == _naive_fold(group, bases, scalars)


class TestGroupSharedBasePowers:
    """Where :meth:`Group.shared_base_powers` declines (``tests/property`` has equality on every group)."""

    def test_modp_keeps_native_pow_below_the_order_floor(self, monkeypatch):
        """Small groups, and whatever else the planner declines, still call ``exponentiate``."""
        calls = []
        exponentiate = ModPElement.exponentiate
        monkeypatch.setattr(
            ModPElement, "exponentiate", lambda self, scalar: calls.append(scalar) or exponentiate(self, scalar)
        )
        toy = testing_group()
        assert toy.order.bit_length() < MULTIEXP_MIN_ORDER_BITS
        base, scalars = toy.power(9), [toy.order - 2, 3, 5, 7, 11, 13, 17, 19]
        del calls[:]
        toy.shared_base_powers(base, scalars)
        assert calls == scalars


# ----------------------------------------------- operation counts, not seconds


def _counting(ops, charge_squarings=True):
    """``ops`` with every group operation tallied (``advance`` by k = k squarings)."""
    spent = [0]

    def multiply(a, b):
        spent[0] += 1
        return ops.multiply(a, b)

    def advance(a, k):
        spent[0] += k * charge_squarings
        return ops.advance(a, k)

    def invert(a):
        spent[0] += 1
        return ops.invert(a)

    return GroupOps(ops.identity, multiply, advance, invert), spent


def _square_and_multiply_each_term(ops, values, scalars):
    """The per-term loop the kernels replace: one binary ladder per base."""
    result = ops.identity
    for value, scalar in zip(values, scalars):
        term = value
        for bit in bin(scalar)[3:]:
            term = ops.advance(term, 1)
            if bit == "1":
                term = ops.multiply(term, value)
        result = ops.multiply(result, term)
    return result


class TestKernelOperationCounts:
    @pytest.mark.parametrize("kernel", [straus_multi_exponentiate, pippenger_multi_exponentiate])
    @pytest.mark.parametrize("num_terms", [64, 128])
    def test_kernels_spend_at_most_half_the_naive_group_operations(self, kernel, num_terms):
        """The planner's estimate is pinned above; this pins what the kernels do."""
        rng = random.Random(num_terms)
        values = [rng.randrange(1, _M) for _ in range(num_terms)]
        scalars = [rng.getrandbits(2047) | 1 << 2046 for _ in range(num_terms)]
        window = plan_multi_exponentiation(num_terms, 2047).window

        naive_ops, naive_spent = _counting(ADDITIVE)
        kernel_ops, kernel_spent = _counting(ADDITIVE)
        expected = _additive_expected(values, scalars)
        assert _square_and_multiply_each_term(naive_ops, values, scalars) == expected
        assert kernel(kernel_ops, values, scalars, window) == expected
        assert 2 * kernel_spent[0] <= naive_spent[0]

    @pytest.mark.parametrize("num_scalars", [2, 4, 8])
    def test_shared_base_ladder_spends_at_most_half_the_naive_group_operations(self, num_scalars):
        """One base, K exponents: K ladders' worth of squarings become one."""
        rng = random.Random(num_scalars)
        base = rng.randrange(1, _M)
        scalars = [rng.getrandbits(2047) | 1 << 2046 for _ in range(num_scalars)]
        plan = plan_shared_base_powers(num_scalars, 2047, invert_cost=1.0)  # _counting charges an inversion 1
        assert plan.algorithm == "ladder"

        naive_ops, naive_spent = _counting(ADDITIVE)
        kernel_ops, kernel_spent = _counting(ADDITIVE)
        expected = [base * scalar % _M for scalar in scalars]
        assert [
            _square_and_multiply_each_term(naive_ops, [base], [scalar]) for scalar in scalars
        ] == expected
        assert shared_base_powers(kernel_ops, base, scalars, plan.window) == expected
        assert 2 * kernel_spent[0] <= naive_spent[0]

    @pytest.mark.parametrize("charge_squarings, share", [(True, 0.85), (False, 0.5)])
    def test_signed_window_power_against_the_binary_ladder(self, charge_squarings, share):
        """253 bits: the squarings stay (two thirds of a ladder), the multiplications fall from ~127 to ~50.

        The squarings alone are 0.67 of the ladder's operations, so the
        whole power cannot fall below that; 0.8× is what the recoding gives
        (here with the eight inversions of the odd powers charged in full).
        """
        rng = random.Random(253)
        naive_ops, naive_spent = _counting(ADDITIVE, charge_squarings)
        kernel_ops, kernel_spent = _counting(ADDITIVE, charge_squarings)
        for _ in range(8):
            base, scalar = rng.randrange(1, _M), rng.getrandbits(253) | 1 << 252
            assert _square_and_multiply_each_term(naive_ops, [base], [scalar]) == base * scalar % _M
            assert signed_window_power(kernel_ops, base, scalar) == base * scalar % _M
        assert kernel_spent[0] <= share * naive_spent[0]
        if charge_squarings:  # what the planners are told, the inversions apart
            assert abs(kernel_spent[0] / 8 - 8 - signed_window_cost(253)) <= 4
