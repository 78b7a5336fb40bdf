"""The audit API surface: plans, reports, strategies, spec parsing."""

from __future__ import annotations

import pytest

from repro.audit.api import (
    AuditPlan,
    AuditReport,
    BatchedVerifier,
    Check,
    CheckStatus,
    EagerVerifier,
    verifier_from_spec,
)
from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group
from repro.crypto.hashing import sha256
from repro.crypto.modp_group import modp_group_256
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign
from repro.runtime.executor import SerialExecutor


def _truth(value):
    return value


def _predicate_check(name, value):
    return Check("predicate", name, (_truth, value))


def _signature_checks(group, count, bad=()):
    checks = []
    for index in range(count):
        keypair = schnorr_keygen(group)
        message = sha256(b"audit-test", index.to_bytes(4, "big"))
        signature = schnorr_sign(keypair, message)
        public = keypair.public
        if index in bad:
            message = sha256(b"tampered", index.to_bytes(4, "big"))
        checks.append(Check("schnorr", f"sig[{index}]", (public, message, signature)))
    return checks


def _decryption_share_checks(group, count):
    elgamal = ElGamal(group)
    checks = []
    for index in range(count):
        secret = group.random_scalar()
        public_share = group.power(secret)
        ciphertext = elgamal.encrypt(group.power(group.random_scalar()), group.power(index + 1))
        (share,) = elgamal.decryption_shares([secret], ciphertext, [public_share])
        checks.append(Check("decryption-share", f"share[{index}]", (public_share, ciphertext, share)))
    return checks


class TestPlanAndReport:
    def test_plan_add_and_iterate(self):
        plan = AuditPlan()
        plan.add("predicate", "a", _truth, True)
        plan.extend([_predicate_check("b", True)])
        assert len(plan) == 2
        assert [check.name for check in plan] == ["a", "b"]

    def test_report_outcome_accessors(self):
        plan = AuditPlan([_predicate_check("good", True), _predicate_check("bad", False)])
        report = EagerVerifier().run(plan)
        assert not report.ok
        assert report.num_checks == 2
        assert report.num_failed == 1
        assert report.first_failure.name == "bad"
        assert report.counts_by_kind() == {"predicate": (1, 1)}
        assert report.results[0].status is CheckStatus.PASSED

    def test_reports_compare_on_outcomes_not_strategy_or_timing(self):
        plan = AuditPlan([_predicate_check("x", True)])
        eager = EagerVerifier().run(plan)
        batched = BatchedVerifier().run(plan)
        assert eager == batched
        assert eager.fingerprint() == batched.fingerprint()
        assert eager.strategy != batched.strategy

    def test_fingerprint_depends_on_outcomes(self):
        good = EagerVerifier().run(AuditPlan([_predicate_check("x", True)]))
        bad = EagerVerifier().run(AuditPlan([_predicate_check("x", False)]))
        assert good.fingerprint() != bad.fingerprint()

    def test_summary_mentions_failure_locus(self):
        report = EagerVerifier().run(AuditPlan([_predicate_check("the.locus", False)]))
        assert "the.locus" in report.summary()
        assert "FAIL" in report.summary()

    def test_empty_plan_passes(self):
        for verifier in (EagerVerifier(), BatchedVerifier()):
            report = verifier.run(AuditPlan())
            assert report.ok and report.num_checks == 0


class TestStrategies:
    def test_batched_matches_eager_on_valid_signatures(self, group):
        plan = AuditPlan(_signature_checks(group, 12))
        eager = EagerVerifier().run(plan)
        batched = BatchedVerifier(chunk_size=5).run(plan)
        assert eager.ok and batched.ok
        assert eager == batched

    def test_batched_spends_at_most_half_the_eager_exponentiations(self, monkeypatch):
        """What batching buys, as a count: one random-linear-combination
        fold per chunk, whatever its kinds, does the work of one verification
        per check.  (A 256-bit group: the toy group's multi-exp stays naive.)"""
        group = modp_group_256()
        plan = AuditPlan(_signature_checks(group, 16) + _decryption_share_checks(group, 16))
        element_type = type(group.generator)
        exponentiate, multi_exponentiate = element_type.exponentiate, Group.multi_exponentiate
        spent, products = [], []
        monkeypatch.setattr(
            element_type, "exponentiate",
            lambda element, scalar: spent.append(1) or exponentiate(element, scalar),
        )
        monkeypatch.setattr(
            Group, "multi_exponentiate",
            lambda self, bases, scalars: products.append(len(bases)) or multi_exponentiate(self, bases, scalars),
        )

        def run(verifier):
            del spent[:], products[:]
            report = verifier.run(plan)
            assert report.ok
            return report.fingerprint(), len(spent), len(products)

        eager_fingerprint, eager_spent, eager_products = run(EagerVerifier())
        batched_fingerprint, batched_spent, batched_products = run(BatchedVerifier())
        assert batched_fingerprint == eager_fingerprint
        assert eager_spent >= 2 * len(plan) and eager_products == 0
        assert 2 * batched_spent <= eager_spent
        # Two kinds in one chunk: one fold, a product per side of it.
        assert 1 <= batched_products <= 2

    def test_batched_bisects_to_exact_verdicts(self, group):
        bad = {3, 7}
        plan = AuditPlan(_signature_checks(group, 10, bad=bad))
        eager = EagerVerifier().run(plan)
        batched = BatchedVerifier(chunk_size=4).run(plan)
        assert eager == batched
        assert {result.name for result in batched.failures} == {f"sig[{i}]" for i in bad}

    def test_batched_sends_the_plan_in_one_starmap_cut_per_worker(self, group):
        """One round trip a plan: ``max(⌈n/chunk_size⌉, num_workers)`` chunks,
        rounded up to a multiple of ``num_workers``, with the plan's checks,
        grouped by kind, dealt round them — fold-less kinds too."""

        class ThreeWorkers(SerialExecutor):
            def __init__(self):
                self.calls = []

            @property
            def num_workers(self):
                return 3

            def map(self, fn, items, chunksize=None):
                raise AssertionError("the batched strategy only starmaps")

            def starmap(self, fn, items, chunksize=None):
                items = list(items)
                self.calls.append([list(kinds) for kinds, _ in items])
                return super().starmap(fn, items, chunksize)

        plan = AuditPlan(
            _signature_checks(group, 10, bad={6}) + [_predicate_check("p", True), _predicate_check("q", False)]
        )
        eager = EagerVerifier().run(plan)
        sig, pred = "schnorr", "predicate"
        for chunk_size, expected in (
            # 12 checks: ⌈12/4⌉ = 3 chunks; s0..s9 p q dealt round three.
            (4, [[sig] * 4, [sig] * 3 + [pred], [sig] * 3 + [pred]]),
            # ⌈12/5⌉ = 3 is already a multiple of three.
            (5, [[sig] * 4, [sig] * 3 + [pred], [sig] * 3 + [pred]]),
            # ⌈12/2⌉ = 6: sig[4] and sig[5] share their chunks with p and q.
            (2, [[sig] * 2] * 4 + [[sig, pred]] * 2),
            # The floor: ⌈12/256⌉ = 1 chunk becomes three.
            (256, [[sig] * 4, [sig] * 3 + [pred], [sig] * 3 + [pred]]),
        ):
            executor = ThreeWorkers()
            assert BatchedVerifier(chunk_size=chunk_size, executor=executor).run(plan) == eager
            assert executor.calls == [expected]
        # ⌈12/3⌉ = 4 chunks round up to six; and a plan smaller than the
        # workers ships only the chunks it fills.
        for checks, chunk_size, sizes in ((plan.checks, 3, [2] * 6), (plan.checks[:2], 256, [1, 1])):
            executor = ThreeWorkers()
            BatchedVerifier(chunk_size=chunk_size, executor=executor).run(AuditPlan(checks))
            assert [len(kinds) for kinds in executor.calls[0]] == sizes

    def test_batched_in_process_cuts_the_plan_by_chunk_size_alone(self, group):
        """With one worker the floor is inert: a plan that fits one chunk is
        one fold over every kind in it."""

        class Recording(SerialExecutor):
            def __init__(self):
                self.calls = []

            def starmap(self, fn, items, chunksize=None):
                items = list(items)
                self.calls.append([list(kinds) for kinds, _ in items])
                return super().starmap(fn, items, chunksize)

        plan = AuditPlan(_signature_checks(group, 10, bad={3}) + _decryption_share_checks(group, 3))
        eager = EagerVerifier().run(plan)
        sig, share = "schnorr", "decryption-share"
        for chunk_size, expected in (
            (256, [[sig] * 10 + [share] * 3]),
            # 13 checks: ⌈13/4⌉ = 4 chunks; s0..s9 d0 d1 d2 dealt round four.
            (4, [[sig] * 3 + [share], [sig] * 3, [sig] * 2 + [share], [sig] * 2 + [share]]),
        ):
            executor = Recording()
            assert executor.num_workers == 1
            assert BatchedVerifier(chunk_size=chunk_size, executor=executor).run(plan) == eager
            assert executor.calls == [expected]

    def test_mixed_kind_plan_keeps_plan_order(self, group):
        checks = _signature_checks(group, 3) + [_predicate_check("p", True)]
        interleaved = [checks[3], checks[0], checks[1], checks[2]]
        report = BatchedVerifier().run(AuditPlan(interleaved))
        assert [result.name for result in report.results] == ["p", "sig[0]", "sig[1]", "sig[2]"]

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError, match="unknown audit check kind"):
            EagerVerifier().run(AuditPlan([Check("no-such-kind", "x", ())]))


class TestSpecParsing:
    def test_default_is_eager(self):
        assert isinstance(verifier_from_spec(None), EagerVerifier)
        assert isinstance(verifier_from_spec("eager"), EagerVerifier)

    def test_batched_with_chunk(self):
        verifier = verifier_from_spec("batched:64")
        assert isinstance(verifier, BatchedVerifier)
        assert verifier.chunk_size == 64

    def test_dist_is_batched_by_another_name(self):
        verifier = verifier_from_spec("dist:32")
        assert isinstance(verifier, BatchedVerifier)
        assert verifier.chunk_size == 32

    @pytest.mark.parametrize("spec", ["nope", "batched:zero", "eager:1", "stream:x", "stream", "stream:16:2"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            verifier_from_spec(spec)

    def test_report_is_a_dataclass_with_outcomes(self):
        report = AuditReport(results=[])
        assert report.ok and report.first_failure is None
