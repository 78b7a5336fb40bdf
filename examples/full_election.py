#!/usr/bin/env python3
"""A complete multi-voter Votegral election with per-phase timing.

Runs the end-to-end pipeline (setup → TRIP registration → voting → verifiable
tally) for a configurable number of voters and prints the per-phase latencies
— a laptop-scale version of the paper's §7.4 end-to-end evaluation.

Run with:  python examples/full_election.py [num_voters] [board_spec]

``board_spec`` selects the bulletin-board backend (see ``repro.ledger.api``):
``memory`` (default), ``sqlite[:path]``, or ``batched[:N[:inner]]`` — every
backend yields the identical tally and hash chains.
"""

import sys

from repro.election import ElectionConfig, VotegralElection


def main(num_voters: int = 15, board_spec: str = "memory") -> None:
    config = ElectionConfig(
        num_voters=num_voters,
        num_options=3,
        num_mixers=4,
        proof_rounds=4,
        fake_credentials_per_voter=1,
        board_spec=board_spec,
    )
    with VotegralElection(config) as election:
        report = election.run()

    print(f"election with {num_voters} voters, {config.num_options} options, "
          f"{config.num_mixers} mixers, board={config.board_spec!r}")
    print(f"  counts:             {report.result.counts}")
    print(f"  intended:           {report.intended_counts}")
    print(f"  matches intent:     {report.counts_match_intent}")
    print(f"  universally valid:  {report.universally_verified}")
    print(f"  ballots on ledger:  {report.result.num_ballots_on_ledger} "
          f"({report.result.num_discarded} fake/discarded)")

    per_voter = report.timing.per_voter(num_voters)
    print("per-phase latency (wall-clock, this machine):")
    for phase, seconds in (
        ("registration", report.timing.registration_seconds),
        ("voting", report.timing.voting_seconds),
        ("tally", report.timing.tally_seconds),
    ):
        print(f"  {phase + ':':13} {seconds:.2f} s ({per_voter[phase] * 1e3:.1f} ms per voter)")


if __name__ == "__main__":
    main(
        int(sys.argv[1]) if len(sys.argv) > 1 else 15,
        sys.argv[2] if len(sys.argv) > 2 else "memory",
    )
