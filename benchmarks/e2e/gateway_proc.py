"""The gateway under test, as its own process.

``python -m repro.gateway`` takes its rate limits from the environment; the
benchmark passes every setting explicitly, so this launcher builds the
service itself: the given board and tally shape, a governor that never sheds
(rates of 1e9, default batch size and window) and the given telemetry sink.
Like the benchmark process, it opens SQLite without ``fsync``
(``harness.skip_sqlite_fsync``).

Prints ``{"port": N}`` once the socket is bound.  On SIGTERM or SIGINT it
prints one JSON line with each tenant's ballot count and chain head as the
live process saw them, then drains and exits 0; the benchmark compares that
line with what it reads back from the SQLite file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys

import harness


async def _serve(board_spec: str, mixers: int, proof_rounds: int) -> None:
    from repro.gateway.governor import GovernorConfig
    from repro.gateway.routes import GatewayServer
    from repro.gateway.service import GatewayService, ServiceConfig

    unlimited = 1e9
    service = GatewayService(
        ServiceConfig(
            group_name="toy",
            board_spec=board_spec,
            executor_spec="serial",
            audit_spec="batched",
            num_mixers=mixers,
            proof_rounds=proof_rounds,
            governor=GovernorConfig(
                tenant_rate=unlimited, tenant_burst=unlimited,
                client_rate=unlimited, client_burst=unlimited,
            ),
        )
    )
    server = GatewayServer(service, host="127.0.0.1", port=0)
    await server.start()
    print(json.dumps({"port": server.port}), flush=True)

    loop = asyncio.get_running_loop()
    stop = loop.create_future()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, lambda: stop.done() or stop.set_result(None))
    await stop

    boards = {}
    for election_id, tenant in service.tenants.items():
        await tenant.stop_admitter()
        board = tenant.setup.board
        board.flush()
        boards[election_id] = {
            "num_ballots": board.num_ballots,
            "ballot_head": board.ballot_log.head().head_hash.hex(),
        }
    print(json.dumps({"boards": boards}), flush=True)
    await server.stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--board-spec", required=True)
    parser.add_argument("--mixers", type=int, required=True)
    parser.add_argument("--proof-rounds", type=int, required=True)
    parser.add_argument("--telemetry", choices=("off", "mem"), required=True)
    args = parser.parse_args(argv)
    harness.skip_sqlite_fsync()
    if args.telemetry != "off":
        from repro import telemetry

        telemetry.configure(args.telemetry)
    asyncio.run(_serve(args.board_spec, args.mixers, args.proof_rounds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
