"""The unified, strategy-pluggable verification API (version 2).

Every proof obligation in the system — a Schnorr signature, a decryption
share, a shuffle-round opening, a tagging chain, a ledger hash chain, a
count invariant — is expressed as a typed :class:`Check`: a *kind* (which
predicate of :data:`repro.audit.kinds.KINDS` judges it), a *name* (the
failure locus an auditor reads), and the *evidence* tuple the predicate
consumes.  Checks collect into an :class:`AuditPlan` and a pluggable
:class:`Verifier` executes the plan with one of two strategies:

* :class:`EagerVerifier` — every check runs its kind's reference predicate,
  one by one, in plan order.  The semantics the batched strategy must
  reproduce verdict-for-verdict.
* :class:`BatchedVerifier` — every kind is dealt evenly over the chunks,
  and all chunks go to the executor in one ``starmap``; the checks of a
  chunk whose kinds state equations collapse into a single
  random-linear-combination product check (:mod:`repro.runtime.batch`),
  whatever their kinds.  A rejected chunk bisects to isolate exact
  per-check verdicts, so the common all-valid case pays one batched
  equation and a corrupted transcript still names its locus.

Both strategies check the full plan and return an :class:`AuditReport` —
per-check outcomes in plan order, failure loci, counts, timings — instead of
a naked boolean.  Reports compare (and fingerprint) over their *outcomes
only*, so eager and batched runs of the same plan produce equal reports on
valid and on tampered evidence alike, which the mutation suite in
``tests/audit`` pins down.

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
from repro.runtime.executor import Executor, resolve_executor
from repro.spec import AUDIT

#: The audit API version this module defines.  Consumers that need a newer
#: check vocabulary can gate on it instead of failing deep inside a plan
#: (2: the ``chaum-pedersen`` and ``tag-chain`` kinds are gone).
AUDIT_API_VERSION = 2

#: Default most checks in one chunk, folded into one batched equation.
DEFAULT_CHUNK_SIZE = 256


@dataclass(frozen=True)
class Check:
    """One proof obligation: a claim, its evidence, and where it came from.

    ``kind`` selects the predicate (see :data:`repro.audit.kinds.KINDS`);
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

    ``results`` holds one :class:`CheckResult` per check of the plan, in plan
    order.  Equality and :meth:`fingerprint` cover the *outcomes only*:
    ``strategy`` and ``elapsed_seconds`` are excluded so both strategies'
    reports on the same plan compare bit-identical.
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
        """Produce one result per check, in plan order."""

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

        verdicts = resolve_executor(self.executor).map(verdict_one, checks)
        return [_result_for(check, verdict) for check, verdict in zip(checks, verdicts)]


class BatchedVerifier(Verifier):
    """Deal the plan into chunks, fold each into one RLC equation, bisect failures.

    Every chunk goes to ``executor`` in one ``starmap``; there are at least
    as many chunks as the executor has workers, and every kind is dealt
    evenly over them (:func:`repro.audit.kinds.evaluate_batched`).
    """

    strategy = "batched"

    def __init__(self, chunk_size: int = DEFAULT_CHUNK_SIZE, executor: Optional[Executor] = None):
        if chunk_size < 1:
            raise ValueError("audit chunk size must be >= 1")
        self.chunk_size = chunk_size
        self.executor = executor

    def _execute(self, checks: List[Check]) -> List[CheckResult]:
        from repro.audit.kinds import evaluate_batched

        return evaluate_batched(checks, chunk_size=self.chunk_size, executor=self.executor)


def verifier_from_spec(spec: Optional[str], executor: Optional[Executor] = None) -> Verifier:
    """Build a verifier from an ``audit_spec`` (forms: :data:`repro.spec.AUDIT`).

    A cluster ``executor`` runs the batched strategy's chunks on its workers.
    """
    head, given = AUDIT.parse(spec)
    if head == "eager":
        return EagerVerifier(executor=executor)
    # ``dist`` is ``batched`` by another name, kept only because
    # benchmarks/e2e/catalogue.py names it (ROADMAP item 1(b) removes it).
    return BatchedVerifier(executor=executor, **given)
