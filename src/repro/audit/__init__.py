"""repro.audit — the unified, strategy-pluggable verification API.

Every proof obligation in the system is a typed :class:`~repro.audit.api.Check` collected
into an :class:`~repro.audit.api.AuditPlan` and executed by a pluggable
:class:`~repro.audit.api.Verifier`:

* ``eager`` — reference one-by-one semantics;
* ``batched`` — every kind dealt evenly over chunks sent to the executor
  in one ``starmap`` (cluster workers, under a :mod:`repro.cluster`
  executor), each chunk's foldable checks, of every kind, folded into one
  random-linear-combination batch equation (:mod:`repro.runtime.batch`) and
  bisected on rejection.

Both check the full plan and return a structured :class:`~repro.audit.api.AuditReport`
(per-check outcomes, failure locus, counts, timings) whose outcomes are
bit-identical across strategies, on valid and on tampered evidence.  Select
a strategy per election via ``ElectionConfig.audit_spec``; audit a whole
election with :func:`~repro.audit.checks.audit_election` or ``python -m repro.audit``.
"""
