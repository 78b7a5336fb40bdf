"""CLI: ``python -m repro.analysis [--format text|json] [paths...]``.

Exit codes: 0 — clean (or every finding baselined/suppressed); 1 — new
findings or a stale baseline; 2 — usage or configuration error (unreadable
baseline, missing justification).  CI runs this as a blocking gate over
``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.analysis.engine import Baseline, BaselineError, analyze_paths
from repro.analysis.rules import RULE_REGISTRY

DEFAULT_BASELINE = "analysis-baseline.json"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Domain-aware static analysis for the repro codebase (REP001-REP007).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src/repro"],
        help="files or directories to analyze (default: src/repro)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help=f"baseline file (default: {DEFAULT_BASELINE} if it exists)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file: report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="PATH",
        default=None,
        help="write current findings to PATH as the new baseline and exit 0 "
        "(entries get a TODO justification you must edit)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _resolve_baseline(args: argparse.Namespace) -> Optional[Baseline]:
    if args.no_baseline:
        return None
    path = args.baseline
    if path is None:
        if os.path.exists(DEFAULT_BASELINE):
            path = DEFAULT_BASELINE
        else:
            return None
    return Baseline.load(path)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        for rule_id in sorted(RULE_REGISTRY):
            rule = RULE_REGISTRY[rule_id]
            print(f"{rule_id}: {rule.summary}")
        return 0

    try:
        baseline = _resolve_baseline(args)
    except (BaselineError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = analyze_paths(args.paths, baseline=baseline)

    if args.write_baseline:
        fresh = Baseline.from_findings(
            report.findings + report.baselined,
            justification="TODO: replace with why this finding is a false positive",
        )
        # Carry forward justifications for entries that still match.
        if baseline is not None:
            for key, why in baseline.entries.items():
                if key in fresh.entries:
                    fresh.entries[key] = why
        fresh.dump(args.write_baseline)
        print(
            f"wrote {len(fresh.entries)} baseline entr"
            f"{'y' if len(fresh.entries) == 1 else 'ies'} to {args.write_baseline}"
        )
        return 0

    if args.format == "json":
        print(json.dumps(report.to_dict(), indent=2))
    else:
        for finding in report.findings:
            print(finding.render())
        for rule, path, snippet in report.stale_baseline:
            print(f"stale baseline entry: {rule} {path}: {snippet!r} no longer matches")
        status = "ok" if report.ok else "FAIL"
        print(
            f"{status}: {report.files_checked} files, "
            f"{len(report.rules_run)} rules, "
            f"{len(report.findings)} new finding(s), "
            f"{len(report.baselined)} baselined, "
            f"{report.suppressed_count} suppressed inline, "
            f"{len(report.stale_baseline)} stale baseline entr"
            f"{'y' if len(report.stale_baseline) == 1 else 'ies'}"
        )

    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
