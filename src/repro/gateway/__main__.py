"""``python -m repro.gateway`` — serve elections over HTTP.

Examples::

    # Ephemeral port, in-memory board, toy group (demos and tests):
    python -m repro.gateway

    # A pre-provisioned election on a persistent board, fixed port:
    python -m repro.gateway --port 8080 --board-spec sqlite:/tmp/board.db \\
        --election demo:100:3 --group modp-256

The process prints ``gateway listening on HOST:PORT`` once the socket is
bound (scripts and the drain test parse this line), then serves until
SIGTERM/SIGINT, at which point it drains gracefully: new work is refused
with 503, queued casts flush to the ledger, boards close, exit code 0.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Dict, List, Optional

from repro import telemetry
from repro.crypto.registry import GROUP_NAMES
from repro.gateway.governor import GovernorConfig
from repro.gateway.routes import GatewayServer
from repro.gateway.schemas import CreateElectionRequest
from repro.gateway.service import GatewayService, ServiceConfig
from repro.spec import env


def _parse_election(text: str) -> CreateElectionRequest:
    """Parse an ``id:voters:options`` pre-provisioning flag."""
    parts = text.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"expected id:num_voters:num_options, got {text!r}"
        )
    election_id, voters_text, options_text = parts
    try:
        return CreateElectionRequest(
            election_id=election_id,
            num_voters=int(voters_text),
            num_options=int(options_text),
        )
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected id:num_voters:num_options with integers, got {text!r}"
        ) from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.gateway",
        description="Serve elections over HTTP (see docs/gateway.md).",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default loopback)")
    parser.add_argument("--port", type=int, default=0, help="bind port (default ephemeral)")
    parser.add_argument("--board-spec", default="memory", help="ledger backend per tenant")
    parser.add_argument("--executor-spec", default="serial", help="tally executor backend")
    parser.add_argument("--audit-spec", default="batched", help="audit verification strategy")
    parser.add_argument(
        "--group", default="toy", choices=GROUP_NAMES(), help="default election group"
    )
    parser.add_argument(
        "--election",
        action="append",
        type=_parse_election,
        default=[],
        metavar="ID:VOTERS:OPTIONS",
        help="pre-provision an election (repeatable)",
    )
    parser.add_argument("--batch-size", type=int, default=None, help="ballots per tenant-board flush")
    parser.add_argument("--queue-depth", type=int, default=None, help="admission queue bound")
    parser.add_argument(
        "--telemetry",
        default=None,
        help="telemetry spec for /metrics (off | mem | jsonl:path); defaults "
        "to $REPRO_TELEMETRY if set, else mem — so a gateway launched with "
        "the same REPRO_TELEMETRY=jsonl: file as its clients joins their "
        "distributed traces instead of silently recording to memory",
    )
    return parser


async def _serve(args: argparse.Namespace) -> int:
    overrides: Dict[str, float] = {}
    if args.batch_size is not None:
        overrides["batch_size"] = args.batch_size
    if args.queue_depth is not None:
        overrides["queue_depth"] = args.queue_depth
    service = GatewayService(
        ServiceConfig(
            group_name=args.group,
            board_spec=args.board_spec,
            executor_spec=args.executor_spec,
            audit_spec=args.audit_spec,
            governor=GovernorConfig.from_env(**overrides),
        )
    )
    for request in args.election:
        await service.create_election(request)
    server = GatewayServer(service, host=args.host, port=args.port)
    await server.start()
    print(f"gateway listening on {args.host}:{server.port}", flush=True)

    stop = asyncio.get_running_loop().create_future()

    def _request_stop() -> None:
        if not stop.done():
            stop.set_result(None)

    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, _request_stop)
    await stop
    print("gateway draining", flush=True)
    await server.stop()
    print("gateway drained", flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    spec = args.telemetry
    if spec is None:
        spec = env(telemetry.TELEMETRY_ENV) or "mem"
    if spec and spec != "off":
        telemetry.configure(spec)
    return asyncio.run(_serve(args))


if __name__ == "__main__":
    sys.exit(main())
