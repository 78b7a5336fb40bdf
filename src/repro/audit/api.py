"""The unified, strategy-pluggable verification API (version 1).

Every proof obligation in the system — a Schnorr signature, a Chaum–Pedersen
transcript, a shuffle-round opening, a tagging chain, a ledger hash chain, a
count invariant — is expressed as a typed :class:`Check`: a *kind* (which
registered predicate judges it), a *name* (the failure locus an auditor
reads), and the *evidence* tuple the predicate consumes.  Checks collect
into an :class:`AuditPlan` and a pluggable :class:`Verifier` executes the
plan with one of three strategies:

* :class:`EagerVerifier` — every check runs its kind's reference predicate,
  one by one, in plan order.  The semantics every other strategy must
  reproduce verdict-for-verdict.
* :class:`BatchedVerifier` — checks are grouped by kind and, for kinds with
  a registered *fold*, whole chunks collapse into a single
  random-linear-combination product check (:mod:`repro.runtime.batch`); a
  rejected chunk bisects to isolate exact per-check verdicts, so the common
  all-valid case pays one batched equation and a corrupted transcript still
  names its locus.
* :class:`StreamingVerifier` — check shards ride a
  :class:`~repro.runtime.pipeline.StreamPipeline` (batched verification per
  shard) and the sink cancels outstanding shards at the first failure, so a
  rejecting auditor pays for the failing shard, not the whole plan.
* :class:`DistributedVerifier` — the plan is cut into contiguous,
  picklable check shards, each shard ships as one task over the executor
  surface (a :class:`~repro.cluster.executor.RemoteExecutor` sends it to a
  worker on another process or machine, where the batched fold runs), and
  the shard results merge back — in plan order — into one report.

Every strategy returns an :class:`AuditReport` — per-check outcomes in plan
order, failure loci, counts, timings — instead of a naked boolean.  Reports
compare (and fingerprint) over their *outcomes only*, so eager, batched and
streaming runs of the same plan over valid evidence produce equal reports,
which the mutation suite in ``tests/audit`` pins down.

Strategies are selected per election via ``ElectionConfig.audit_spec``
through :func:`verifier_from_spec` (forms: :data:`repro.spec.AUDIT`).
"""

from __future__ import annotations

import abc
import enum
import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.runtime.executor import Executor
from repro.runtime.pipeline import Shard, Stage, StopPipeline, StreamPipeline, iter_shards
from repro.runtime.sharding import parallel_map
from repro.spec import AUDIT

#: The audit API version this module defines.  Consumers that need a newer
#: check vocabulary can gate on it instead of failing deep inside a plan.
AUDIT_API_VERSION = 1

#: Default number of same-kind checks folded into one batched equation.
DEFAULT_CHUNK_SIZE = 256

#: Default shard geometry for the streaming strategy.
DEFAULT_STREAM_SHARD = 64
DEFAULT_STREAM_DEPTH = 4

#: Default checks per shard for the distributed strategy — coarser than the
#: streaming shard because every shard is one wire round-trip.
DEFAULT_DIST_SHARD = 128


@dataclass(frozen=True)
class Check:
    """One proof obligation: a claim, its evidence, and where it came from.

    ``kind`` selects the registered predicate (see :mod:`repro.audit.kinds`);
    ``name`` is the human-readable failure locus (e.g.
    ``"ballot-mix[2].round[5]"``); ``evidence`` is the kind-specific payload,
    passed positionally to the predicate.
    """

    kind: str
    name: str
    evidence: Tuple[Any, ...] = ()


class CheckStatus(enum.Enum):
    PASSED = "passed"
    FAILED = "failed"

    def __str__(self) -> str:  # pragma: no cover - display helper
        return self.value


@dataclass(frozen=True)
class CheckResult:
    """The verdict on one check: its identity plus pass/fail."""

    name: str
    kind: str
    status: CheckStatus

    @property
    def ok(self) -> bool:
        return self.status is CheckStatus.PASSED


class AuditPlan:
    """An ordered collection of :class:`Check`s awaiting a verifier."""

    def __init__(self, checks: Optional[Sequence[Check]] = None):
        self.checks: List[Check] = list(checks or [])

    def add(self, kind: str, name: str, *evidence: Any) -> Check:
        check = Check(kind=kind, name=name, evidence=tuple(evidence))
        self.checks.append(check)
        return check

    def extend(self, checks: Sequence[Check]) -> "AuditPlan":
        self.checks.extend(checks)
        return self

    def __len__(self) -> int:
        return len(self.checks)

    def __iter__(self) -> Iterator[Check]:
        return iter(self.checks)


@dataclass
class AuditReport:
    """The structured outcome of executing an :class:`AuditPlan`.

    ``results`` holds one :class:`CheckResult` per executed check, in plan
    order (the streaming strategy may truncate after the shard containing
    the first failure — that is the point of cancellation).  Equality and
    :meth:`fingerprint` cover the *outcomes only*: ``strategy`` and
    ``elapsed_seconds`` are excluded so the three strategies' reports on
    valid evidence compare bit-identical.
    """

    results: List[CheckResult]
    strategy: str = field(default="eager", compare=False)
    elapsed_seconds: float = field(default=0.0, compare=False)

    @property
    def ok(self) -> bool:
        return all(result.ok for result in self.results)

    @property
    def num_checks(self) -> int:
        return len(self.results)

    @property
    def failures(self) -> List[CheckResult]:
        return [result for result in self.results if not result.ok]

    @property
    def num_failed(self) -> int:
        return len(self.failures)

    @property
    def first_failure(self) -> Optional[CheckResult]:
        """The failure locus: the first check (in plan order) that failed."""
        for result in self.results:
            if not result.ok:
                return result
        return None

    def counts_by_kind(self) -> Dict[str, Tuple[int, int]]:
        """Per-kind ``(passed, failed)`` counts."""
        counts: Dict[str, Tuple[int, int]] = {}
        for result in self.results:
            passed, failed = counts.get(result.kind, (0, 0))
            if result.ok:
                counts[result.kind] = (passed + 1, failed)
            else:
                counts[result.kind] = (passed, failed + 1)
        return counts

    def fingerprint(self) -> str:
        """A canonical digest of the outcomes (strategy- and time-independent)."""
        digest = hashlib.sha256()
        for result in self.results:
            digest.update(result.kind.encode())
            digest.update(b"\x00")
            digest.update(result.name.encode())
            digest.update(b"\x00")
            digest.update(result.status.value.encode())
            digest.update(b"\x01")
        return digest.hexdigest()

    def summary(self) -> str:
        """A human-readable multi-line summary (used by ``python -m repro.audit``)."""
        lines = [
            f"audit[{self.strategy}]: "
            f"{'PASS' if self.ok else 'FAIL'} — {self.num_checks} checks, "
            f"{self.num_failed} failed, {self.elapsed_seconds * 1000:.1f} ms"
        ]
        for kind, (passed, failed) in sorted(self.counts_by_kind().items()):
            marker = "ok " if failed == 0 else "FAIL"
            lines.append(f"  [{marker}] {kind}: {passed} passed, {failed} failed")
        failure = self.first_failure
        if failure is not None:
            lines.append(f"  first failure: {failure.name} ({failure.kind})")
        return "\n".join(lines)


class Verifier(abc.ABC):
    """A strategy for executing an :class:`AuditPlan`."""

    strategy: str = "abstract"

    @abc.abstractmethod
    def _execute(self, checks: List[Check]) -> List[CheckResult]:
        """Produce per-check results (possibly truncated, for streaming)."""

    def run(self, plan: AuditPlan) -> AuditReport:
        # The report's wall-clock comes straight off the telemetry span, so
        # a trace and its AuditReport can never disagree about elapsed time.
        # (The span handle measures even with telemetry off.)
        checks = list(plan)
        with telemetry.span("audit.run", strategy=self.strategy, checks=len(checks)) as span:
            results = self._execute(checks)
        if telemetry.enabled():
            tallies: Dict[Tuple[str, str], int] = {}
            for result in results:
                key = (result.kind, result.status.value)
                tallies[key] = tallies.get(key, 0) + 1
            for (kind, status), count in tallies.items():
                telemetry.counter("audit.checks", count, kind=kind, strategy=self.strategy, status=status)
        return AuditReport(
            results=results,
            strategy=self.strategy,
            elapsed_seconds=span.elapsed_seconds,
        )


def _result_for(check: Check, verdict: bool) -> CheckResult:
    return CheckResult(
        name=check.name,
        kind=check.kind,
        status=CheckStatus.PASSED if verdict else CheckStatus.FAILED,
    )


class EagerVerifier(Verifier):
    """The reference strategy: every check judged by its kind's predicate.

    ``executor`` optionally fans the per-check evaluation out over a
    :mod:`repro.runtime` backend (order-preserving, so the report is
    identical); the default is the module-wide serial executor.
    """

    strategy = "eager"

    def __init__(self, executor: Optional[Executor] = None):
        self.executor = executor

    def _execute(self, checks: List[Check]) -> List[CheckResult]:
        from repro.audit.kinds import verdict_one

        verdicts = parallel_map(verdict_one, checks, executor=self.executor)
        return [_result_for(check, verdict) for check, verdict in zip(checks, verdicts)]


class BatchedVerifier(Verifier):
    """Group by kind, fold chunks into RLC batch equations, bisect failures."""

    strategy = "batched"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE, executor: Optional[Executor] = None):
        if chunk_size < 1:
            raise ValueError("audit chunk size must be >= 1")
        self.chunk_size = chunk_size
        self.executor = executor

    def _execute(self, checks: List[Check]) -> List[CheckResult]:
        from repro.audit.kinds import evaluate_batched

        return evaluate_batched(checks, chunk_size=self.chunk_size, executor=self.executor)


class _ShardVerifyStage(Stage):
    """Verify one shard of checks with the batched fold."""

    name = "verify-checks"

    def __init__(self, chunk_size: int):
        self.chunk_size = chunk_size

    def process(self, shard: Shard):
        from repro.audit.kinds import evaluate_batched

        yield Shard(shard.index, evaluate_batched(shard.items, chunk_size=self.chunk_size))


class StreamingVerifier(Verifier):
    """Checks ride pipeline shards; the sink cancels at the first failure.

    Each shard is verified with the batched fold (so the per-shard cost
    matches :class:`BatchedVerifier` at ``chunk = shard_size``), shards
    flow through a bounded-queue :class:`~repro.runtime.pipeline.
    StreamPipeline`, and a failing shard stops the stream: the report
    contains every result up to and including the failing shard, in plan
    order.
    """

    strategy = "stream"

    def __init__(
        self,
        shard_size: int = DEFAULT_STREAM_SHARD,
        queue_depth: int = DEFAULT_STREAM_DEPTH,
    ):
        if shard_size < 1:
            raise ValueError("audit stream shard size must be >= 1")
        self.shard_size = shard_size
        self.queue_depth = queue_depth

    def _execute(self, checks: List[Check]) -> List[CheckResult]:
        if not checks:
            return []
        results: List[CheckResult] = []

        def _consume(shard: Shard) -> None:
            results.extend(shard.items)
            if not all(result.ok for result in shard.items):
                raise StopPipeline()

        StreamPipeline(
            [_ShardVerifyStage(self.shard_size)],
            queue_depth=self.queue_depth,
            name="audit",
        ).run(iter_shards(checks, self.shard_size), consume=_consume)
        return results


def _verify_check_shard(checks: Sequence[Check]) -> List[CheckResult]:
    """Verify one contiguous shard of checks with the batched fold.

    Module-level and picklable: this is the function a
    :class:`DistributedVerifier` ships to remote workers, one shard per
    task.  Deterministic verdicts make at-least-once redelivery (after a
    worker death) bit-identical.
    """
    from repro.audit.kinds import evaluate_batched

    return evaluate_batched(list(checks))


class DistributedVerifier(Verifier):
    """Fan contiguous check shards out over the executor surface and merge.

    Each shard of ``shard_size`` checks becomes exactly one task — under a
    :class:`~repro.cluster.executor.RemoteExecutor` that is one wire frame
    to one remote worker, which runs the batched fold locally and returns
    its :class:`CheckResult`s.  Shard results concatenate in plan order, so
    the merged :class:`AuditReport` fingerprints identically to the eager,
    batched and streaming strategies on the same plan; only worker
    placement (and the wall clock) moves.
    """

    strategy = "dist"

    def __init__(
        self,
        shard_size: int = DEFAULT_DIST_SHARD,
        executor: Optional[Executor] = None,
    ):
        if shard_size < 1:
            raise ValueError("audit dist shard size must be >= 1")
        self.shard_size = shard_size
        self.executor = executor

    def _execute(self, checks: List[Check]) -> List[CheckResult]:
        if not checks:
            return []
        shards = [checks[start:start + self.shard_size] for start in range(0, len(checks), self.shard_size)]
        shard_results = parallel_map(_verify_check_shard, shards, executor=self.executor, chunksize=1)
        return [result for shard in shard_results for result in shard]


def verifier_from_spec(spec: Optional[str], executor: Optional[Executor] = None) -> Verifier:
    """Build a verifier from an ``audit_spec`` (forms: :data:`repro.spec.AUDIT`).

    The ``dist`` strategy pairs with a cluster ``executor`` to run check
    shards on remote workers; with an in-process executor it degrades to
    sharded batched verification.
    """
    head, given = AUDIT.parse(spec)
    if head == "eager":
        return EagerVerifier(executor=executor)
    if head == "batched":
        return BatchedVerifier(executor=executor, **given)
    if head == "stream":
        return StreamingVerifier(**given)
    return DistributedVerifier(executor=executor, **given)
