"""End-to-end election auditing: the acceptance surface of ``repro.audit``.

``audit_election`` over a board produced by the standard
:class:`~repro.election.pipeline.VotegralElection` flow must pass under both
strategies with bit-identical :class:`~repro.audit.api.AuditReport`
outcomes — including the published tagging/decryption evidence bundle —
and a tampered result must fail with a named locus under every strategy.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from repro.audit.api import BatchedVerifier, EagerVerifier
from repro.audit.checks import audit_election, audit_tally
from repro.election.config import ElectionConfig
from repro.election.pipeline import VotegralElection

STRATEGIES = ("eager", "batched:8", "batched:2")


@pytest.fixture(scope="module")
def voted_election():
    config = ElectionConfig(
        num_voters=4, num_options=2, proof_rounds=2, num_mixers=2, audit_evidence=True
    )
    election = VotegralElection(config)
    election.run_setup()
    election.run_registration()
    election.run_voting(rng=random.Random(17))
    result = election.run_tally(verify=False)
    yield election, result
    election.close()


class TestAuditElection:
    def test_all_strategies_pass_with_identical_outcomes(self, voted_election):
        election, result = voted_election
        reports = [
            audit_election(
                election.setup.board,
                election.config,
                authority=election.setup.authority,
                result=result,
                kiosk_public_keys=election.setup.registrar.kiosk_public_keys,
                verifier=spec,
            )
            for spec in STRATEGIES
        ]
        for spec, report in zip(STRATEGIES, reports):
            assert report.ok, f"{spec}: {report.summary()}"
        assert len({report.fingerprint() for report in reports}) == 1
        assert reports[0] == reports[1] == reports[2]

    def test_evidence_bundle_is_checked(self, voted_election):
        election, result = voted_election
        assert result.evidence is not None
        report = audit_election(
            election.setup.board,
            election.config,
            authority=election.setup.authority,
            result=result,
            verifier="eager",
        )
        kinds = report.counts_by_kind()
        assert kinds["ciphertext-tag-chain"][0] > 0
        assert kinds["decryption-share"][0] > 0

    def test_tampered_counts_fail_under_every_strategy(self, voted_election):
        election, result = voted_election
        tampered = replace(result, counts={**result.counts, 0: result.counts[0] + 5})
        loci = set()
        for spec in STRATEGIES:
            report = audit_tally(
                election.group, election.setup.authority, election.setup.board, tampered,
                verifier=spec,
            )
            assert not report.ok
            loci.add(report.first_failure.name)
        assert loci == {"tally.counts-sum"}

    def test_tampered_evidence_tag_fails(self, voted_election):
        election, result = voted_election
        evidence = result.evidence
        bad_tag = replace(
            evidence.registration_tags[0],
            tag=evidence.registration_tags[0].tag * election.group.generator,
        )
        tampered = replace(
            result,
            evidence=replace(
                evidence, registration_tags=(bad_tag,) + evidence.registration_tags[1:]
            ),
        )
        for spec in STRATEGIES:
            report = audit_tally(
                election.group, election.setup.authority, election.setup.board, tampered,
                verifier=spec,
            )
            assert not report.ok
            assert report.first_failure.name.startswith("tag[registration][0].")

    def test_surplus_evidence_entries_cannot_pass_unchecked(self, voted_election):
        # A malicious tallier padding both the filter tag list and the
        # evidence bundle with a fabricated extra entry must be caught by the
        # count predicates (anchored to the *verified* cascade outputs), not
        # silently truncated out of the per-entry loops.
        election, result = voted_election
        evidence = result.evidence
        extra = evidence.registration_tags[0]
        padded_filter = replace(
            result.filter_result,
            registration_tags=list(result.filter_result.registration_tags) + [extra.tag.to_bytes()],
        )
        tampered = replace(
            result,
            filter_result=padded_filter,
            evidence=replace(
                evidence, registration_tags=evidence.registration_tags + (extra,)
            ),
        )
        for spec in STRATEGIES:
            report = audit_tally(
                election.group, election.setup.authority, election.setup.board, tampered,
                verifier=spec,
            )
            assert not report.ok
            assert report.first_failure.name == "evidence.registration-tag-count"

    def test_join_outcome_bound_to_verified_tags(self, voted_election):
        # Claiming an extra counted ciphertext (with a matching decryption
        # transcript) must fail the re-joined filter consistency check.
        election, result = voted_election
        from repro.audit.evidence import decryption_transcript

        fake_vote = result.filter_result.counted[0]
        padded = replace(
            result.filter_result, counted=list(result.filter_result.counted) + [fake_vote]
        )
        tampered = replace(
            result,
            filter_result=padded,
            votes=list(result.votes) + [result.votes[0]],
            num_counted=result.num_counted + 1,
            evidence=replace(
                result.evidence,
                decryptions=result.evidence.decryptions
                + (decryption_transcript(election.setup.authority, fake_vote),),
            ),
        )
        report = audit_tally(
            election.group, election.setup.authority, election.setup.board, tampered,
            verifier="eager",
        )
        assert not report.ok
        failing = {result_.name for result_ in report.failures}
        assert "evidence.join-consistent" in failing

    @pytest.mark.parametrize("spec", ["batched", "eager", "batched:4", "dist:4"])
    def test_every_strategy_reports_the_same_verdict(self, voted_election, spec):
        election, result = voted_election
        args = (election.group, election.setup.authority, election.setup.board)
        honest = audit_tally(*args, result, verifier=spec)
        assert honest.ok
        assert honest.fingerprint() == audit_tally(*args, result).fingerprint()
        tampered = replace(result, counts={**result.counts, 0: result.counts[0] + 5})
        report = audit_tally(*args, tampered, verifier=spec)
        assert not report.ok
        assert report.first_failure == audit_tally(*args, tampered).first_failure

    def test_audit_without_result_checks_board_only(self, voted_election):
        election, _ = voted_election
        report = audit_election(
            election.setup.board,
            election.config,
            kiosk_public_keys=election.setup.registrar.kiosk_public_keys,
        )
        assert report.ok
        kinds = report.counts_by_kind()
        assert kinds["ledger-chain"][0] == 3
        assert kinds["schnorr"][0] == 2 * election.config.num_voters

    def test_result_without_authority_raises(self, voted_election):
        election, result = voted_election
        with pytest.raises(ValueError, match="authority"):
            audit_election(election.setup.board, election.config, result=result)

    def test_config_audit_spec_selects_strategy(self, voted_election):
        election, _ = voted_election
        config = replace_config(election.config, audit_spec="batched:32")
        report = audit_election(election.setup.board, config)
        assert report.strategy == "batched"
        assert report.ok

    def test_election_report_records_audit(self):
        config = ElectionConfig(
            num_voters=3, num_options=2, proof_rounds=2, num_mixers=2,
            audit_evidence=True, audit_spec="batched",
        )
        with VotegralElection(config) as election:
            report = election.run(rng=random.Random(3))
            assert report.universally_verified
            assert election.audit_report is not None
            assert election.audit_report.ok
            assert election.audit_report.strategy == "batched"


def replace_config(config: ElectionConfig, **kwargs) -> ElectionConfig:
    from dataclasses import replace as dc_replace

    return dc_replace(config, **kwargs)


class TestBatchedBoardAudit:
    def test_batched_board_adds_batch_chain_check(self):
        config = ElectionConfig(
            num_voters=3, num_options=2, proof_rounds=2, num_mixers=2, board_spec="batched:4"
        )
        with VotegralElection(config) as election:
            election.run_setup()
            election.run_registration()
            election.run_voting(rng=random.Random(5))
            result = election.run_tally(verify=False)
            report = audit_election(
                election.setup.board,
                config,
                authority=election.setup.authority,
                result=result,
            )
            assert report.ok
            assert report.counts_by_kind()["batch-chain"] == (1, 0)


class TestVerifierClasses:
    def test_explicit_verifier_instances_accepted(self, voted_election):
        election, result = voted_election
        for verifier in (EagerVerifier(), BatchedVerifier(chunk_size=16)):
            report = audit_tally(
                election.group, election.setup.authority, election.setup.board, result,
                verifier=verifier,
            )
            assert report.ok


class TestCommandLine:
    def test_cli_passes_and_agrees(self, capsys):
        from repro.audit.__main__ import main

        code = main(["--voters", "3", "--seed", "11", "--proof-rounds", "2", "--mixers", "2"])
        output = capsys.readouterr().out
        assert code == 0
        assert "PASS: election verified under every strategy" in output
        assert "strategies agree" in output

    def test_cli_compares_fingerprints_on_a_rejection_too(self, capsys, monkeypatch):
        from repro.audit import __main__ as cli

        audit = cli.audit_election

        def with_tampered_counts(board, config, result, **kwargs):
            counts = {**result.counts, 0: result.counts[0] + 1}
            return audit(board, config, result=replace(result, counts=counts), **kwargs)

        monkeypatch.setattr(cli, "audit_election", with_tampered_counts)
        code = cli.main(["--voters", "3", "--seed", "11", "--proof-rounds", "2", "--mixers", "2"])
        output = capsys.readouterr().out
        assert code == 1
        assert "strategies agree: fingerprint" in output
        assert "rejected at tally.counts-sum" in output

    def test_cli_no_evidence_flag(self, capsys):
        from repro.audit.__main__ import main

        code = main(
            ["--voters", "2", "--seed", "1", "--proof-rounds", "2", "--mixers", "1",
             "--strategies", "batched", "--no-evidence"]
        )
        assert code == 0
        assert "audit[batched]" in capsys.readouterr().out
