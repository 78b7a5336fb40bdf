"""The gateway's domain layer: tenants, cast admission, and drain.

One :class:`GatewayService` hosts many **tenants** — fully independent
elections.  A tenant is a :class:`~repro.election.pipeline.VotegralElection`
behind a governor: setup, registration, tally and audit are that object's
phases, so what the service runs is the pipeline the in-process driver
runs.  The HTTP layer (:mod:`repro.gateway.routes`) is a thin adapter
over this class, so every behaviour here is testable without a socket.

The cast path has one batcher and one sequencer, and both are the tenant's
write-behind board (:class:`~repro.ledger.backends.memory.MemoryBackend` at
the governor's batch size).  A ``POST .../ballots`` runs the governor's
admission checks and then awaits one append of the request's records through
the :class:`AsyncIngestionFrontend`: a plain
queue push runs inline, an append that would trip a flush runs on a worker
thread, so the event loop never chains or writes.  A registration is flushed
before its response, so it is durable when acknowledged; ballots reach the
chains (and the disk) at the next flush.  The board's lock orders
concurrent requests, a request's records stay contiguous, and each receipt is
the ballot's ledger position — the resulting hash chain is byte-identical to
casting the same records in-process.

Threading model: all mutable state is owned by the event loop.  Blocking
domain work (setup, registration, tally, audit) runs in worker threads via
``asyncio.to_thread``; nothing in this module takes a lock around blocking
calls.
"""

from __future__ import annotations

import asyncio
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, cast as narrowed

from repro import telemetry
from repro.crypto.registry import group_by_name
from repro.election.config import ElectionConfig
from repro.election.pipeline import VotegralElection
from repro.errors import GatewayError
from repro.gateway.governor import GovernorConfig, TenantGovernor
from repro.gateway.schemas import (
    AuditReportWire,
    AuditStreamEvent,
    CastRequest,
    CreateElectionRequest,
    CredentialWire,
    ElectionInfo,
    HealthResponse,
    RegisterRequest,
    RegisterResponse,
    SchemaError,
    TallyResponse,
)
from repro.ledger.backends.memory import MemoryBackend
from repro.ledger.records import BallotRecord, Record, RegistrationRecord, RollEntry
from repro.spec import BOARD
from repro.tally.pipeline import TallyResult

STATUS_OPEN = "open"
STATUS_CLOSED = "closed"
STATUS_TALLIED = "tallied"


class UnknownElectionError(GatewayError):
    """No tenant with that election id (HTTP 404)."""


class ConflictError(GatewayError):
    """The operation is invalid in the election's current status (HTTP 409)."""


class ShedError(GatewayError):
    """The governor refused admission (HTTP 429 + Retry-After)."""

    def __init__(self, reason: str, retry_after_seconds: float) -> None:
        super().__init__(f"request shed: {reason}")
        self.retry_after_seconds = retry_after_seconds


class DrainingError(GatewayError):
    """The service is shutting down and refuses new work (HTTP 503)."""

    def __init__(self) -> None:
        super().__init__("service is draining")
        self.retry_after_seconds = 1.0


@dataclass
class ServiceConfig:
    """Everything one gateway process is parameterized by."""

    group_name: str = "toy"
    board_spec: str = "memory"
    executor_spec: str = "serial"
    audit_spec: str = "batched"
    num_mixers: int = 2
    proof_rounds: int = 2
    governor: GovernorConfig = field(default_factory=GovernorConfig.from_env)

    def election_config(self, request: CreateElectionRequest, group_name: str) -> ElectionConfig:
        """The one mapping from this service and a create request to an election.

        Every tenant board is write-behind batched (the cast path's one
        batcher): a spec that is not already ``batched`` is wrapped at the
        governor's batch size.
        """
        board_spec = self.board_spec
        if BOARD.parse(board_spec)[0] != "batched":
            board_spec = f"batched:{self.governor.batch_size}:{board_spec}"
        return ElectionConfig(
            num_voters=request.num_voters,
            num_options=request.num_options,
            num_authority_members=request.num_authority_members or 3,
            num_mixers=self.num_mixers,
            proof_rounds=self.proof_rounds,
            election_id=request.election_id,
            group_factory=functools.partial(group_by_name, group_name),
            executor_spec=self.executor_spec,
            board_spec=board_spec,
            audit_spec=self.audit_spec,
        )


class AsyncIngestionFrontend:
    """asyncio adapter for concurrent ballot casting against a store.

    An append that is a plain queue push runs inline on the event loop; an
    append that would wait for the lock or trip a flush is off-loaded to a
    worker thread, so the loop never blocks on hashing or I/O.
    """

    def __init__(self, store: MemoryBackend) -> None:
        self._store = store

    async def append_many(self, records: Sequence[Record]) -> List[int]:
        # try_append_many checks lock availability and the flush trigger
        # atomically, so the inline path can neither block on a running
        # flush nor start one on the event loop.
        seqs = self._store.try_append_many(records)
        if seqs is not None:
            return seqs
        return await asyncio.to_thread(self._store.append_many, records)

    async def flush(self) -> None:
        await asyncio.to_thread(self._store.flush)

    async def drain(self) -> None:
        """Flush, so every acknowledged record is on its chain (and persisted)."""
        await self.flush()


class ElectionTenant:
    """One hosted election: a set-up :class:`VotegralElection` behind a governor."""

    def __init__(
        self, election: VotegralElection, group_name: str, governor: GovernorConfig
    ) -> None:
        self.election = election
        self.election_id = election.config.election_id
        self.group_name = group_name
        self.setup = election.setup
        self.status = STATUS_OPEN
        self.governor = TenantGovernor(config=governor)
        self.frontend = AsyncIngestionFrontend(self.setup.board.store)
        #: Cast requests awaiting their append; ``_quiet`` is set whenever
        #: there are none, which is what close and shutdown wait on.
        self._in_flight = 0
        self._quiet = asyncio.Event()
        self._quiet.set()
        self._registration_gate = asyncio.Lock()
        self._subscribers: List["asyncio.Queue[Optional[AuditStreamEvent]]"] = []
        self.tally_result: Optional[TallyResult] = None
        self._audit_cache: Optional[Tuple[Tuple[str, int], AuditReportWire]] = None

    # ------------------------------------------------------------------ casting

    async def cast(self, client_key: str, request: CastRequest) -> List[int]:
        if self.status != STATUS_OPEN:
            raise ConflictError(
                f"election {self.election_id!r} is {self.status}; casting requires open"
            )
        records = [
            narrowed(BallotRecord, wire.to_record(self.setup.group, path=f"ballots[{index}]"))
            for index, wire in enumerate(request.ballots)
        ]
        for index, record in enumerate(records):
            if record.election_id != self.election_id:
                raise SchemaError(
                    {f"ballots[{index}].election_id": f"ballot is for {record.election_id!r}"}
                )
        count = len(records)
        admission = self.governor.admit_cast(client_key, count, time.monotonic())
        if not admission.allowed:
            telemetry.counter("gateway.shed", count)
            raise ShedError(admission.reason, admission.retry_after_seconds)
        # No await between the checks above and this bookkeeping: a cast is
        # either refused or counted before close/shutdown can observe quiet.
        self.governor.queued += count
        self._in_flight += 1
        self._quiet.clear()
        telemetry.gauge("gateway.queue.depth", self.governor.queued, election=self.election_id)
        try:
            with telemetry.span("gateway.batch.admit", election=self.election_id, size=count):
                seqs = await self.frontend.append_many(records)
        except Exception as error:
            telemetry.counter("gateway.errors", count)
            raise GatewayError(f"ledger append failed: {error}") from error
        finally:
            self.governor.queued -= count
            self._in_flight -= 1
            if not self._in_flight:
                self._quiet.set()
            telemetry.gauge("gateway.queue.depth", self.governor.queued, election=self.election_id)
        telemetry.histogram("gateway.batch.size", count, election=self.election_id)
        telemetry.counter("gateway.casts", count)
        return seqs

    async def stop_admitter(self) -> None:
        """Quiesce the cast path, then drain.

        Waits for every admitted append to be acknowledged — a request whose
        client has gone away still runs to its receipt — and then flushes
        whatever the board still holds pending onto its chains.  Callers
        stop admission first (``close`` by status, ``shutdown`` by draining).
        """
        await self._quiet.wait()
        await self.frontend.drain()

    # ------------------------------------------------------------- registration

    async def register(self, request: RegisterRequest) -> RegisterResponse:
        if self.status != STATUS_OPEN:
            raise ConflictError(
                f"election {self.election_id!r} is {self.status}; registration requires open"
            )
        store = self.setup.board.store
        if store.get(RollEntry, request.voter_id) is None:
            raise SchemaError({"voter_id": "not on the electoral roll"})
        if store.get(RegistrationRecord, request.voter_id) is not None:
            raise ConflictError(f"voter {request.voter_id!r} is already registered")
        # The registrar actors (kiosk, official, booth supply) are stateful,
        # so registrations are serialized per tenant; the crypto still runs
        # off-loop in a worker thread.
        async with self._registration_gate:
            return await asyncio.to_thread(self._register_blocking, request.voter_id)

    def _register_blocking(self, voter_id: str) -> RegisterResponse:
        outcome = self.election.register_voter(voter_id)
        # Durable before acknowledged: the records leave the write-behind
        # queue (and, on SQLite, reach the file) before the response does.
        self.setup.board.flush()
        # The roll's entries head the registration log, one per eligible voter.
        ledger_seq = self.election.config.num_voters + outcome.ledger_seq
        credentials = [
            CredentialWire(
                voter_id=voter_id,
                secret_key=report.credential.secret_key,
                public_key=report.credential.public_key.to_bytes(),
                is_real=report.credential.is_real,
            )
            for report in outcome.activation_reports
            if report.success and report.credential is not None
        ]
        return RegisterResponse(voter_id=voter_id, ledger_seq=ledger_seq, credentials=credentials)

    # ---------------------------------------------------------------- lifecycle

    async def close(self) -> None:
        if self.status != STATUS_OPEN:
            raise ConflictError(f"election {self.election_id!r} is already {self.status}")
        self.status = STATUS_CLOSED
        await self.stop_admitter()
        self._publish(AuditStreamEvent(event="status", election_id=self.election_id, status=self.status))

    async def tally(self) -> TallyResponse:
        if self.status == STATUS_OPEN:
            raise ConflictError(f"election {self.election_id!r} must be closed before tallying")
        if self.tally_result is None:
            self.tally_result = await asyncio.to_thread(self.election.tally)
            self.status = STATUS_TALLIED
            self._publish(
                AuditStreamEvent(event="status", election_id=self.election_id, status=self.status)
            )
        result = self.tally_result
        return TallyResponse(
            election_id=self.election_id,
            counts={str(option): count for option, count in result.counts.items()},
            turnout=result.turnout,
            num_ballots_on_ledger=result.num_ballots_on_ledger,
            num_valid_ballots=result.num_valid_ballots,
            num_counted=result.num_counted,
            num_discarded=result.num_discarded,
            winner=result.winner(),
        )

    async def audit_report(self) -> AuditReportWire:
        if self.status == STATUS_OPEN:
            raise ConflictError(f"election {self.election_id!r} must be closed before auditing")
        cache_key = (self.status, self.setup.board.store.count(BallotRecord))
        if self._audit_cache is not None and self._audit_cache[0] == cache_key:
            return self._audit_cache[1]
        wire = await asyncio.to_thread(self._audit_blocking)
        self._audit_cache = (cache_key, wire)
        self._publish(
            AuditStreamEvent(
                event="audit-report",
                election_id=self.election_id,
                status=self.status,
                report=wire,
            )
        )
        return wire

    def _audit_blocking(self) -> AuditReportWire:
        started = time.monotonic()
        report = self.election.audit(self.tally_result)
        wire = AuditReportWire(
            election_id=self.election_id,
            ok=report.ok,
            strategy=self.election.config.audit_spec,
            num_checks=report.num_checks,
            num_failed=report.num_failed,
            fingerprint=report.fingerprint(),
            elapsed_seconds=time.monotonic() - started,
            failures=[f"{failure.kind}:{failure.name}" for failure in report.failures],
        )
        # Audit progress on /metrics: one counter tick per completed report,
        # labelled with its fingerprint so dashboards can spot a chain that
        # stopped re-verifying (the per-check counts ride the verifier's own
        # "audit.checks" series emitted during the run above).
        telemetry.counter(
            "audit.reports",
            1,
            election=self.election_id,
            ok=str(report.ok).lower(),
            fingerprint=wire.fingerprint[:12],
        )
        return wire

    async def shutdown(self) -> None:
        """Wait out in-flight casts, flush the board, release executor and board."""
        await self.stop_admitter()
        for queue in self._subscribers:
            queue.put_nowait(None)
        self._subscribers.clear()
        await asyncio.to_thread(self.election.close)

    # ------------------------------------------------------------------ queries

    def info(self) -> ElectionInfo:
        store = self.setup.board.store
        config = self.election.config
        return ElectionInfo(
            election_id=self.election_id,
            status=self.status,
            group=self.group_name,
            generator=self.setup.group.generator.to_bytes(),
            authority_public_key=self.setup.authority_public_key.to_bytes(),
            num_options=config.num_options,
            num_voters=config.num_voters,
            num_registered=len(store.current(RegistrationRecord)),
            num_ballots=store.count(BallotRecord),
            pending_casts=self.governor.queued,
        )

    # -------------------------------------------------------------- subscribers

    def subscribe(self) -> "asyncio.Queue[Optional[AuditStreamEvent]]":
        queue: "asyncio.Queue[Optional[AuditStreamEvent]]" = asyncio.Queue()
        self._subscribers.append(queue)
        queue.put_nowait(
            AuditStreamEvent(event="status", election_id=self.election_id, status=self.status)
        )
        return queue

    def unsubscribe(self, queue: "asyncio.Queue[Optional[AuditStreamEvent]]") -> None:
        if queue in self._subscribers:
            self._subscribers.remove(queue)

    def _publish(self, event: AuditStreamEvent) -> None:
        for queue in self._subscribers:
            queue.put_nowait(event)
            telemetry.counter("gateway.stream.events")


class GatewayService:
    """The multi-tenant front door the HTTP routes adapt onto."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.tenants: Dict[str, ElectionTenant] = {}
        self.draining = False
        self._started_at = time.monotonic()

    # ----------------------------------------------------------------- tenants

    def tenant(self, election_id: str) -> ElectionTenant:
        tenant = self.tenants.get(election_id)
        if tenant is None:
            raise UnknownElectionError(f"no election {election_id!r} on this gateway")
        return tenant

    async def create_election(self, request: CreateElectionRequest) -> ElectionInfo:
        self._refuse_if_draining()
        if request.election_id in self.tenants:
            raise ConflictError(f"election {request.election_id!r} already exists")
        group_name = request.group or self.config.group_name
        try:
            group_by_name(group_name)
        except ValueError as error:
            raise SchemaError({"group": str(error)}) from None
        tenant = await asyncio.to_thread(self._build_tenant, request, group_name)
        # Re-check after the blocking build: a concurrent create for the same
        # id may have landed while this one was in the worker thread.
        if request.election_id in self.tenants:
            await tenant.shutdown()
            raise ConflictError(f"election {request.election_id!r} already exists")
        self.tenants[request.election_id] = tenant
        return tenant.info()

    def _build_tenant(self, request: CreateElectionRequest, group_name: str) -> ElectionTenant:
        election = VotegralElection(self.config.election_config(request, group_name))
        try:
            election.run_setup()
        except BaseException:
            election.close()
            raise
        return ElectionTenant(election, group_name, self.config.governor)

    # ---------------------------------------------------------------- handlers

    async def register(self, election_id: str, request: RegisterRequest) -> RegisterResponse:
        self._refuse_if_draining()
        return await self.tenant(election_id).register(request)

    async def cast(self, election_id: str, client_key: str, request: CastRequest) -> List[int]:
        self._refuse_if_draining()
        return await self.tenant(election_id).cast(client_key, request)

    async def close_election(self, election_id: str) -> ElectionInfo:
        tenant = self.tenant(election_id)
        await tenant.close()
        return tenant.info()

    async def tally(self, election_id: str) -> TallyResponse:
        self._refuse_if_draining()
        return await self.tenant(election_id).tally()

    async def audit_report(self, election_id: str) -> AuditReportWire:
        return await self.tenant(election_id).audit_report()

    def health(self) -> HealthResponse:
        return HealthResponse(
            status="draining" if self.draining else "ok",
            elections=len(self.tenants),
            uptime_seconds=time.monotonic() - self._started_at,
        )

    def metrics(self) -> str:
        for election_id, tenant in sorted(self.tenants.items()):
            telemetry.gauge(
                "gateway.queue.depth", tenant.governor.queued, election=election_id
            )
        return telemetry.snapshot().to_prometheus()

    # -------------------------------------------------------------- ops plane

    def debug_queues(self) -> Dict[str, Any]:
        """Unacknowledged casts per tenant (`GET /v1/debug/queues`)."""
        queues: Dict[str, Any] = {}
        for election_id, tenant in sorted(self.tenants.items()):
            queues[election_id] = {
                "queued": tenant.governor.queued,
                "in_flight": tenant._in_flight,
            }
        return {"draining": self.draining, "queues": queues}

    def debug_governors(self) -> Dict[str, Any]:
        """Live token-bucket levels per tenant (`GET /v1/debug/governors`)."""
        now = time.monotonic()
        governors: Dict[str, Any] = {}
        for election_id, tenant in sorted(self.tenants.items()):
            governor = tenant.governor
            governors[election_id] = {
                "tenant_bucket": _bucket_level(governor.tenant_bucket, now),
                "clients": {
                    client: _bucket_level(bucket, now)
                    for client, bucket in sorted(governor.client_buckets.items())
                },
                "queued": governor.queued,
                "admitted_total": governor.admitted_total,
                "shed_total": governor.shed_total,
            }
        return {"governors": governors}

    def debug_tenants(self) -> Dict[str, Any]:
        """Per-tenant status + counts (`GET /v1/debug/tenants`)."""
        tenants: Dict[str, Any] = {}
        for election_id, tenant in sorted(self.tenants.items()):
            store = tenant.setup.board.store
            tenants[election_id] = {
                "status": tenant.status,
                "group": tenant.group_name,
                "num_voters": tenant.election.config.num_voters,
                "num_options": tenant.election.config.num_options,
                "num_registered": len(store.current(RegistrationRecord)),
                "num_ballots": store.count(BallotRecord),
                "queued": tenant.governor.queued,
                "admitted_total": tenant.governor.admitted_total,
                "shed_total": tenant.governor.shed_total,
                "subscribers": len(tenant._subscribers),
                "tallied": tenant.tally_result is not None,
            }
        return {"draining": self.draining, "tenants": tenants}

    # ---------------------------------------------------------------- shutdown

    def _refuse_if_draining(self) -> None:
        if self.draining:
            raise DrainingError()

    async def shutdown(self) -> None:
        """Graceful drain: refuse new work, finish admitted casts, flush boards."""
        if self.draining:
            return
        self.draining = True
        for tenant in self.tenants.values():
            await tenant.shutdown()


def _bucket_level(bucket: Any, now: float) -> Optional[Dict[str, float]]:
    """A token bucket's current fill, refill-adjusted but not mutated."""
    if bucket is None:
        return None
    elapsed = max(0.0, now - bucket.updated_at)
    return {
        "tokens": min(bucket.burst, bucket.tokens + elapsed * bucket.rate),
        "burst": bucket.burst,
        "rate": bucket.rate,
    }


def service_from_config(config: ElectionConfig) -> GatewayService:
    """Build a :class:`GatewayService` whose tenants reuse an election's specs.

    Maps the config's board, executor and audit specs, its group and its
    mixing/proof parameters onto a :class:`ServiceConfig`.
    """
    return GatewayService(
        ServiceConfig(
            group_name=config.group_factory().name,
            board_spec=config.board_spec,
            executor_spec=config.executor_spec,
            audit_spec=config.audit_spec,
            num_mixers=config.num_mixers,
            proof_rounds=config.proof_rounds,
            governor=GovernorConfig.from_env(),
        )
    )
