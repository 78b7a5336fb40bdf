"""Election configuration."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro import telemetry
from repro.crypto import bigint
from repro.crypto.group import Group
from repro.crypto.modp_group import testing_group
from repro.ledger.api import board_from_spec
from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.bulletin_board import BulletinBoard
from repro.runtime.executor import Executor, executor_from_spec
from repro.runtime.pipeline import PipelineSpec, pipeline_from_spec
from repro.spec import GATEWAY, GRAMMARS, TELEMETRY


@dataclass
class ElectionConfig:
    """Parameters of a simulated Votegral election.

    The defaults favour fast simulation (toy group, few proof rounds); the
    benchmarks override ``group`` with Ed25519 or the 2048-bit group and raise
    ``proof_rounds`` when measuring realistic costs.

    The seven ``*_spec`` strings are the whole deployment surface; their
    forms are declared in :mod:`repro.spec` and listed under "Configuration
    surface" in ``docs/architecture.md``.  All are parsed at construction, so
    a typo fails here and not after the tally has run.  Every choice publishes
    bit-identical results; only the wall clock and durability move.

    - ``executor_spec``: backend the tally's parallel stages run on.
    - ``board_spec``: storage of the bulletin board's three sub-ledgers.
    - ``pipeline_spec``: ``stream`` reads the ballot ledger's pages on a reader
      thread, ahead of the tally collecting them; the tally's phases run one
      after another either way.
    - ``audit_spec``: verification strategy of :mod:`repro.audit`.
    - ``audit_evidence``: publish :class:`repro.audit.evidence.TallyEvidence`
      for external auditors (each tag is then derived once, with its proofs:
      6M exponents on ciphertext parts for M members where 4M suffice
      without, each part raised once for all of them — a tally about 1.2x
      the proof-less one, so opt-in; ``docs/performance.md`` section 2b).
    - ``telemetry_spec``: observability sink; ``off`` leaves ambient state alone.
    - ``bigint_spec``: arithmetic backend :meth:`make_group` checks the process
      already runs on (``REPRO_BIGINT`` selects it); never switched.
    - ``gateway_spec``: HTTP front door :meth:`make_gateway` builds (not starts).
    """

    num_voters: int = 10
    num_options: int = 2
    num_authority_members: int = 4
    num_mixers: int = 4
    proof_rounds: int = 4
    envelopes_per_voter: int = 3
    fake_credentials_per_voter: int = 1
    election_id: str = "default"
    group_factory: Callable[[], Group] = testing_group
    executor_spec: str = "serial"
    board_spec: str = "memory"
    pipeline_spec: str = "serial"
    audit_spec: str = "batched"
    audit_evidence: bool = False
    telemetry_spec: str = "off"
    bigint_spec: str = "auto"
    gateway_spec: str = "off"

    def __post_init__(self) -> None:
        for grammar in GRAMMARS:
            grammar.parse(getattr(self, grammar.field))

    def voter_ids(self) -> List[str]:
        width = max(4, len(str(self.num_voters)))
        return [f"voter-{index:0{width}d}" for index in range(self.num_voters)]

    def make_group(self) -> Group:
        # Fail loudly *before* building the group if the election demands a
        # specific bigint backend this process did not resolve.
        bigint.require(self.bigint_spec)
        return self.group_factory()

    def make_telemetry(self) -> None:
        """Attach the configured telemetry sink for this process.

        The default ``"off"`` deliberately leaves ambient state alone, so a
        caller who attached a sink directly (or through ``REPRO_TELEMETRY``)
        is not silently disconnected by constructing a default config.
        """
        if TELEMETRY.parse(self.telemetry_spec)[0] != "off":
            telemetry.configure(self.telemetry_spec)

    def make_executor(self) -> Executor:
        executor = executor_from_spec(self.executor_spec)
        # Remote executors advertise warm work in their WELCOME frames; give
        # them this election's group so enrolling workers precompute the
        # generator table before their first shard (unpicklable factories —
        # e.g. a lambda — are dropped by set_warm, never fatal).
        set_warm = getattr(executor, "set_warm", None)
        if callable(set_warm):
            set_warm(groups=[self.group_factory])
        return executor

    def make_pipeline(self) -> PipelineSpec:
        return pipeline_from_spec(self.pipeline_spec)

    def make_board_backend(self, group: Optional[Group] = None) -> MemoryBackend:
        return board_from_spec(self.board_spec, group=group)

    def make_board(self, group: Optional[Group] = None) -> BulletinBoard:
        return BulletinBoard(self.make_board_backend(group=group))

    def make_gateway(self):
        """Build (not start) the HTTP gateway selected by ``gateway_spec``.

        Returns ``None`` for ``"off"``; otherwise a
        :class:`repro.gateway.routes.GatewayServer` whose tenants are
        provisioned with this config's board/executor/audit specs and group.
        Imported lazily — an election that never serves HTTP never pays for
        the gateway package.
        """
        head, given = GATEWAY.parse(self.gateway_spec)
        if head == "off":
            return None
        from repro.gateway.routes import GatewayServer
        from repro.gateway.service import service_from_config

        return GatewayServer(service_from_config(self), **given)
