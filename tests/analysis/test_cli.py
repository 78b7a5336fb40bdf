"""The ``python -m repro.analysis`` gate: exit codes, formats, baselines."""

import json
import subprocess
import sys

from repro.analysis.__main__ import main

VIOLATION = "import pickle\n\n\ndef decode(blob):\n    return pickle.loads(blob)\n"


def make_tree(tmp_path, dirty=True):
    package = tmp_path / "repro" / "cluster"
    package.mkdir(parents=True)
    (package / "module.py").write_text(VIOLATION if dirty else "x = 1\n")
    return str(tmp_path)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        assert main(["--no-baseline", make_tree(tmp_path, dirty=False)]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        assert main(["--no-baseline", make_tree(tmp_path)]) == 1
        out = capsys.readouterr().out
        assert "REP003" in out and "FAIL" in out

    def test_unreadable_baseline_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text("{not json")
        code = main(["--baseline", str(bad), make_tree(tmp_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_baseline_without_justification_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "baseline.json"
        bad.write_text(json.dumps({
            "version": 1,
            "findings": [{"rule": "REP003", "path": "p", "snippet": "s", "justification": ""}],
        }))
        assert main(["--baseline", str(bad), make_tree(tmp_path)]) == 2


class TestBaselineFlow:
    def test_write_then_gate_passes_then_goes_stale(self, tmp_path, capsys):
        tree = make_tree(tmp_path)
        baseline = tmp_path / "baseline.json"

        assert main(["--write-baseline", str(baseline), tree]) == 0
        written = json.loads(baseline.read_text())
        assert written["version"] == 1 and len(written["findings"]) == 1
        assert "TODO" in written["findings"][0]["justification"]

        # Gated against the fresh baseline: the old finding no longer fails.
        assert main(["--baseline", str(baseline), tree]) == 0

        # Fix the code: the entry goes stale and the gate fails until the
        # baseline shrinks — baselines never rot silently.
        (tmp_path / "repro" / "cluster" / "module.py").write_text("x = 1\n")
        capsys.readouterr()
        assert main(["--baseline", str(baseline), tree]) == 1
        assert "stale baseline entry" in capsys.readouterr().out

    def test_rewrite_carries_forward_existing_justifications(self, tmp_path):
        tree = make_tree(tmp_path)
        baseline = tmp_path / "baseline.json"
        main(["--write-baseline", str(baseline), tree])
        written = json.loads(baseline.read_text())
        written["findings"][0]["justification"] = "reviewed: restricted shim"
        baseline.write_text(json.dumps(written))

        assert main(["--baseline", str(baseline), "--write-baseline", str(baseline), tree]) == 0
        rewritten = json.loads(baseline.read_text())
        assert rewritten["findings"][0]["justification"] == "reviewed: restricted shim"


class TestOutputFormats:
    def test_json_format_round_trips(self, tmp_path, capsys):
        assert main(["--no-baseline", "--format", "json", make_tree(tmp_path)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["ok"] is False
        (finding,) = report["findings"]
        assert finding["rule"] == "REP003"
        assert finding["path"] == "repro/cluster/module.py"
        assert finding["snippet"] == "return pickle.loads(blob)"

    def test_text_format_renders_clickable_locations(self, tmp_path, capsys):
        main(["--no-baseline", make_tree(tmp_path)])
        assert "repro/cluster/module.py:5:12: REP003" in capsys.readouterr().out

    def test_list_rules_names_all_six(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("REP001", "REP002", "REP003", "REP004", "REP005", "REP006", "REP007"):
            assert rule_id in out


class TestRepositoryGate:
    def test_src_repro_is_clean_under_the_checked_in_baseline(self):
        """The acceptance check itself: the shipped tree passes the gate."""
        result = subprocess.run(
            [sys.executable, "-m", "repro.analysis", "--format", "json", "src/repro"],
            capture_output=True, text=True, cwd="/root/repo",
        )
        assert result.returncode == 0, result.stdout + result.stderr
        report = json.loads(result.stdout)
        assert report["ok"] is True
        assert len(report["rules_run"]) == 7
