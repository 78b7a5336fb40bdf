"""Engine behavior: inline suppression, baselines, policy routing, and the
path walker — everything between a rule and the CLI's exit code."""

import json

import pytest

from repro.analysis.engine import (
    Baseline,
    BaselineError,
    Finding,
    analyze_file,
    analyze_paths,
    policy_path,
)
from repro.analysis.policy import DEFAULT_RULES, rule_ids_for_path, rules_for_path
from repro.analysis.rules import rule_instances

VIOLATION = "import pickle\n\n\ndef decode(blob):\n    return pickle.loads(blob)\n"


def run(source, rule_ids=("REP003",), path="repro/cluster/module.py"):
    return analyze_file("<fixture>", rule_instances(rule_ids), path=path, source=source)


class TestInlineSuppression:
    def test_targeted_noqa_suppresses_only_named_rule(self):
        source = VIOLATION.replace(
            "pickle.loads(blob)", "pickle.loads(blob)  # repro: noqa[REP003]"
        )
        assert run(source) == []

    def test_noqa_for_other_rule_does_not_suppress(self):
        source = VIOLATION.replace(
            "pickle.loads(blob)", "pickle.loads(blob)  # repro: noqa[REP004]"
        )
        assert len(run(source)) == 1

    def test_blanket_noqa_suppresses_everything(self):
        source = VIOLATION.replace(
            "pickle.loads(blob)", "pickle.loads(blob)  # repro: noqa"
        )
        assert run(source) == []

    def test_multi_rule_noqa_list(self):
        source = VIOLATION.replace(
            "pickle.loads(blob)", "pickle.loads(blob)  # repro: noqa[REP001, REP003]"
        )
        assert run(source) == []

    def test_noqa_on_a_different_line_does_not_suppress(self):
        source = "import pickle  # repro: noqa[REP003]\n" + VIOLATION.split("\n", 1)[1]
        assert len(run(source)) == 1


class TestBaseline:
    def _finding(self):
        (finding,) = run(VIOLATION)
        return finding

    def test_round_trip_through_disk(self, tmp_path):
        finding = self._finding()
        baseline = Baseline.from_findings([finding], justification="known shim")
        target = tmp_path / "baseline.json"
        baseline.dump(str(target))
        loaded = Baseline.load(str(target))
        assert loaded.matches(finding)
        assert loaded.entries[finding.fingerprint()] == "known shim"

    def test_fingerprint_survives_line_drift(self):
        finding = self._finding()
        baseline = Baseline.from_findings([finding], justification="known shim")
        drifted = run("# a new leading comment\n\n" + VIOLATION)[0]
        assert drifted.line != finding.line
        assert baseline.matches(drifted)

    def test_load_rejects_missing_justification(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({
            "version": 1,
            "findings": [{"rule": "REP003", "path": "x.py", "snippet": "s", "justification": "  "}],
        }))
        with pytest.raises(BaselineError, match="justification"):
            Baseline.load(str(target))

    def test_load_rejects_malformed_shape(self, tmp_path):
        target = tmp_path / "baseline.json"
        target.write_text(json.dumps({"version": 1, "findings": [{"rule": "REP003"}]}))
        with pytest.raises(BaselineError, match="malformed"):
            Baseline.load(str(target))

    def test_stale_entries_reported(self):
        ghost = Finding(
            rule_id="REP003", path="repro/gone.py", line=1, col=0,
            message="m", snippet="pickle.loads(x)",
        )
        baseline = Baseline.from_findings([ghost], justification="was real once")
        assert baseline.unmatched([self._finding()]) == [ghost.fingerprint()]


class TestPolicy:
    def test_cluster_gets_the_full_set(self):
        assert rule_ids_for_path("repro/cluster/worker.py") == {
            "REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007",
        }

    def test_protocol_module_exempt_from_pickle_rule_only(self):
        ids = rule_ids_for_path("repro/cluster/protocol.py")
        assert "REP003" not in ids
        assert "REP001" in ids and "REP004" in ids

    def test_telemetry_exempt_from_determinism_and_name_registry(self):
        ids = rule_ids_for_path("repro/telemetry/core.py")
        assert "REP002" not in ids and "REP005" not in ids
        assert "REP003" in ids

    def test_tests_get_no_rules(self):
        assert rule_ids_for_path("tests/analysis/test_rules.py") == frozenset()
        assert rules_for_path("tests/analysis/test_rules.py") == ()

    def test_unmatched_paths_get_the_default_set(self):
        assert rule_ids_for_path("repro/errors.py") == DEFAULT_RULES

    def test_registration_span_names_are_checked_against_the_registry(self):
        assert "REP005" in rule_ids_for_path("repro/registration/kiosk.py")

    def test_rule_objects_cached_per_rule_set(self):
        assert rules_for_path("repro/crypto/elgamal.py") is rules_for_path(
            "repro/voting/ballot.py"
        )


class TestPolicyPath:
    def test_src_layout_normalized(self):
        assert policy_path("/root/repo/src/repro/cluster/worker.py") == (
            "repro/cluster/worker.py"
        )

    def test_tests_anchor_kept(self):
        assert policy_path("tests/cluster/test_coordinator.py") == (
            "tests/cluster/test_coordinator.py"
        )


class TestAnalyzePaths:
    def _tree(self, tmp_path):
        package = tmp_path / "repro" / "cluster"
        package.mkdir(parents=True)
        (package / "clean.py").write_text("def add(a, b):\n    return a + b\n")
        (package / "dirty.py").write_text(VIOLATION)
        tests = tmp_path / "tests"
        tests.mkdir()
        (tests / "test_dirty.py").write_text(VIOLATION)  # tests: no rules apply
        return tmp_path

    def test_policy_routes_findings_and_skips_tests(self, tmp_path):
        report = analyze_paths([str(self._tree(tmp_path))])
        assert [f.rule_id for f in report.findings] == ["REP003"]
        assert report.findings[0].path == "repro/cluster/dirty.py"
        assert report.files_checked == 2  # the tests file matched zero rules
        assert not report.ok

    def test_baselined_finding_passes_the_gate(self, tmp_path):
        tree = self._tree(tmp_path)
        first = analyze_paths([str(tree)])
        baseline = Baseline.from_findings(first.findings, justification="fixture")
        second = analyze_paths([str(tree)], baseline=baseline)
        assert second.ok
        assert [f.rule_id for f in second.baselined] == ["REP003"]
        assert second.findings == [] and second.stale_baseline == []

    def test_stale_baseline_fails_the_gate(self, tmp_path):
        tree = self._tree(tmp_path)
        baseline = Baseline.from_findings(
            analyze_paths([str(tree)]).findings, justification="fixture"
        )
        (tree / "repro" / "cluster" / "dirty.py").write_text("x = 1\n")
        report = analyze_paths([str(tree)], baseline=baseline)
        assert report.findings == []
        assert len(report.stale_baseline) == 1
        assert not report.ok

    def test_report_json_round_trips(self, tmp_path):
        report = analyze_paths([str(self._tree(tmp_path))])
        decoded = json.loads(json.dumps(report.to_dict()))
        assert decoded["ok"] is False
        assert decoded["findings"][0]["rule"] == "REP003"
        assert decoded["findings"][0]["path"] == "repro/cluster/dirty.py"
        assert set(decoded["rules_run"]) >= {"REP003"}
