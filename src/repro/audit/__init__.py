"""repro.audit — the unified, strategy-pluggable verification API.

Every proof obligation in the system is a typed :class:`Check` collected
into an :class:`AuditPlan` and executed by a pluggable :class:`Verifier`:

* ``eager`` — reference one-by-one semantics;
* ``batched`` — same-kind checks cut into chunks and sent to the executor
  in one ``starmap`` (cluster workers, under a :mod:`repro.cluster`
  executor), each chunk folded into one random-linear-combination batch
  equation (:mod:`repro.runtime.batch`) and bisected on rejection.

Both check the full plan and return a structured :class:`AuditReport`
(per-check outcomes, failure locus, counts, timings) whose outcomes are
bit-identical across strategies, on valid and on tampered evidence.  Select
a strategy per election via ``ElectionConfig.audit_spec``; audit a whole
election with :func:`audit_election` or ``python -m repro.audit``.
"""

from repro.audit.api import (
    AUDIT_API_VERSION,
    AuditPlan,
    AuditReport,
    BatchedVerifier,
    Check,
    CheckResult,
    CheckStatus,
    EagerVerifier,
    Verifier,
    verifier_from_spec,
)
from repro.audit.checks import (
    audit_election,
    audit_tally,
    ballot_checks,
    cascade_checks,
    chain_checks,
    decryption_checks,
    evidence_checks,
    registration_record_checks,
    rotation_checks,
    tally_audit_plan,
)
from repro.audit.evidence import (
    DecryptionTranscript,
    TagChainEvidence,
    TallyEvidence,
    build_tally_evidence,
    decryption_transcript,
    tag_chain_evidence,
)
from repro.audit.kinds import CheckKind, get_kind, register_kind

__all__ = [
    "AUDIT_API_VERSION",
    "AuditPlan",
    "AuditReport",
    "BatchedVerifier",
    "Check",
    "CheckKind",
    "CheckResult",
    "CheckStatus",
    "DecryptionTranscript",
    "EagerVerifier",
    "TagChainEvidence",
    "TallyEvidence",
    "Verifier",
    "audit_election",
    "audit_tally",
    "ballot_checks",
    "build_tally_evidence",
    "cascade_checks",
    "chain_checks",
    "decryption_checks",
    "decryption_transcript",
    "evidence_checks",
    "get_kind",
    "register_kind",
    "registration_record_checks",
    "rotation_checks",
    "tag_chain_evidence",
    "tally_audit_plan",
    "verifier_from_spec",
]
