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
    StreamingVerifier,
    verifier_from_spec,
)
from repro.crypto.chaum_pedersen import ChaumPedersenStatement, fiat_shamir_prove
from repro.crypto.group import Group
from repro.crypto.hashing import sha256
from repro.crypto.modp_group import modp_group_256
from repro.crypto.schnorr import schnorr_keygen, schnorr_sign


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


def _chaum_pedersen_checks(group, count):
    base_h = group.hash_to_element(b"audit-test second base")
    checks = []
    for index in range(count):
        witness = group.random_scalar()
        statement = ChaumPedersenStatement(
            base_g=group.generator,
            base_h=base_h,
            value_g=group.power(witness),
            value_h=base_h ** witness,
        )
        transcript = fiat_shamir_prove(statement, witness, context=b"audit-test")
        checks.append(Check("chaum-pedersen", f"cp[{index}]", (transcript, b"audit-test")))
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
        for verifier in (EagerVerifier(), BatchedVerifier(), StreamingVerifier()):
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
        product per chunk per kind does the work of one verification per
        check.  (A 256-bit group: the toy group's multi-exp stays naive.)"""
        group = modp_group_256()
        plan = AuditPlan(_signature_checks(group, 16) + _chaum_pedersen_checks(group, 16))
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
        # Two kinds, one chunk each: a product per side of a folded equation.
        assert 1 <= batched_products <= 4

    def test_batched_bisects_to_exact_verdicts(self, group):
        bad = {3, 7}
        plan = AuditPlan(_signature_checks(group, 10, bad=bad))
        eager = EagerVerifier().run(plan)
        batched = BatchedVerifier(chunk_size=4).run(plan)
        assert eager == batched
        assert {result.name for result in batched.failures} == {f"sig[{i}]" for i in bad}

    def test_streaming_matches_on_valid_plans(self, group):
        plan = AuditPlan(_signature_checks(group, 9))
        eager = EagerVerifier().run(plan)
        streamed = StreamingVerifier(shard_size=2).run(plan)
        assert streamed.ok
        assert eager == streamed

    def test_streaming_cancels_after_first_failing_shard(self, group):
        checks = _signature_checks(group, 20, bad={4})
        eager = EagerVerifier().run(AuditPlan(checks))
        streamed = StreamingVerifier(shard_size=2, queue_depth=1).run(AuditPlan(checks))
        assert not streamed.ok
        # Truncated at the failing shard — but what was checked agrees exactly.
        assert len(streamed.results) < len(eager.results)
        assert eager.results[: len(streamed.results)] == streamed.results
        assert streamed.first_failure == eager.first_failure

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

    def test_stream_with_geometry(self):
        verifier = verifier_from_spec("stream:16:2")
        assert isinstance(verifier, StreamingVerifier)
        assert verifier.shard_size == 16
        assert verifier.queue_depth == 2

    @pytest.mark.parametrize("spec", ["nope", "batched:zero", "eager:1", "stream:x"])
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            verifier_from_spec(spec)

    def test_report_is_a_dataclass_with_outcomes(self):
        report = AuditReport(results=[])
        assert report.ok and report.first_failure is None
