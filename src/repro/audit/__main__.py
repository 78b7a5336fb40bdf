"""``python -m repro.audit`` — replay and audit a full election end to end.

Runs the standard :class:`~repro.election.pipeline.VotegralElection` flow
(setup → registration → voting → tally, with evidence collection on), then
audits the resulting board *through the ledger cursor API alone* under each
requested strategy, printing every report and cross-checking that the
strategies' outcomes are bit-identical — every strategy checks the full
plan, so they must agree on a rejected election as on an accepted one.
Exit status 0 iff every strategy accepted, 1 if they agree on a rejection,
2 if they disagree.

Examples::

    python -m repro.audit                           # 5 voters, eager and batched
    python -m repro.audit --voters 20 --mixers 3
    python -m repro.audit --strategies eager,batched:128
    python -m repro.audit --board-spec sqlite:/tmp/board.db --pipeline stream
"""

from __future__ import annotations

import argparse
import random
import sys

from repro.audit.checks import audit_election
from repro.election.config import ElectionConfig
from repro.election.pipeline import VotegralElection


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.audit",
        description="Run a simulated election and audit it under every strategy.",
    )
    parser.add_argument("--voters", type=int, default=5, help="number of voters (default 5)")
    parser.add_argument("--options", type=int, default=2, help="number of candidates (default 2)")
    parser.add_argument("--mixers", type=int, default=2, help="mix cascade length (default 2)")
    parser.add_argument("--proof-rounds", type=int, default=2, help="shadow-mix rounds (default 2)")
    parser.add_argument(
        "--strategies",
        default="eager,batched",
        help="comma-separated audit strategies to run (default: eager,batched)",
    )
    parser.add_argument("--executor", default="serial", help="runtime executor spec (default serial)")
    parser.add_argument("--board-spec", default="memory", help="ledger backend spec (default memory)")
    parser.add_argument("--pipeline", default="serial", help="tally pipeline spec (default serial)")
    parser.add_argument("--seed", type=int, default=None, help="seed the voting RNG for reproducibility")
    parser.add_argument(
        "--no-evidence",
        action="store_true",
        help="skip tagging/decryption evidence collection (audits cascades and ledgers only)",
    )
    args = parser.parse_args(argv)

    config = ElectionConfig(
        num_voters=args.voters,
        num_options=args.options,
        num_mixers=args.mixers,
        proof_rounds=args.proof_rounds,
        executor_spec=args.executor,
        board_spec=args.board_spec,
        pipeline_spec=args.pipeline,
        audit_evidence=not args.no_evidence,
    )
    rng = random.Random(args.seed) if args.seed is not None else None

    with VotegralElection(config) as election:
        report = election.run(rng=rng, verify=False)
        print(
            f"election: {config.num_voters} voters, {config.num_options} options, "
            f"counts={report.result.counts}, winner={report.result.winner()}"
        )
        reports = []
        for spec in [s.strip() for s in args.strategies.split(",") if s.strip()]:
            audit = audit_election(
                election.setup.board,
                config,
                authority=election.setup.authority,
                result=report.result,
                kiosk_public_keys=election.setup.registrar.kiosk_public_keys,
                verifier=spec,
            )
            print(audit.summary())
            reports.append((spec, audit))

    # Every strategy runs the full plan: outcomes must be bit-identical,
    # accepted or rejected.
    fingerprints = {audit.fingerprint() for _, audit in reports}
    if len(fingerprints) > 1:
        print("FAIL: strategies disagree on audit outcomes", file=sys.stderr)
        return 2
    if reports:
        print(f"strategies agree: fingerprint {next(iter(fingerprints))[:16]}…")
    failure = reports[0][1].first_failure if reports else None
    if failure is None:
        print("PASS: election verified under every strategy")
        return 0
    print(f"rejected at {failure.name} ({failure.kind})")
    print("FAIL: the election did not verify", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main())
