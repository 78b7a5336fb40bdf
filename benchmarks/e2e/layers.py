"""Where the benchmark's wrappers go, and the per-layer metrics read off them.

A layer is a ``repro.<module>``.  Every wrapper below is installed on the
public name at the site the caller looks it up (the importing module for a
function, the defining class for a method), so the program under test runs
unmodified and the tracer can be taken out again between repetitions.
"""

from __future__ import annotations

import contextlib
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

import repro.audit.api as audit_api
import repro.audit.checks as audit_checks
import repro.crypto.elgamal as elgamal_module
import repro.runtime.batch as batch_module
import repro.runtime.precompute as precompute
import repro.tally.pipeline as tally_pipeline
from repro.crypto.group import Group, GroupElement
from repro.ledger.api import BoardView
from repro.ledger.bulletin_board import BulletinBoard
from repro.registration.protocol import RegistrationSession
from repro.runtime.pipeline import StreamPipeline
from repro.voting.client import VotingClient

from spans import PRIMITIVE, STAGE, Span, Tracer, self_times

_BATCH_FOLDS = (
    "verify_signatures",
    "batch_schnorr_verify",
    "batch_chaum_pedersen_verify",
    "batch_decryption_share_verify",
    "batch_dlog_verify",
    "batch_reencryption_verify",
)

#: ``repro.tally.pipeline``'s five calls, by the name it imported them under.
_TALLY_STAGES = (
    ("verify_signatures", "tally.sigcheck"),
    ("tuple_mix_cascade", "tally.mix"),
    ("streaming_tuple_mix_cascade", "tally.mix"),
    ("filter_ballots", "tally.filter"),
    ("decrypt_votes", "tally.decrypt"),
    ("build_tally_evidence", "tally.evidence"),
)


def _subclasses(root: type) -> List[type]:
    found, queue = [], [root]
    while queue:
        for sub in queue.pop().__subclasses__():
            found.append(sub)
            queue.append(sub)
    return found


def _defining_class(klass: type, attr: str) -> type:
    for base in klass.__mro__:
        if attr in base.__dict__:
            return base
    raise AttributeError(attr)


@contextlib.contextmanager
def installed(tracer: Optional[Tracer], executor) -> Iterator[None]:
    """Wrappers in place for the block; nothing at all when ``tracer`` is ``None``."""
    if tracer is None:
        yield
        return
    install(tracer, executor)
    try:
        yield
    finally:
        tracer.uninstall()


def install(tracer: Tracer, executor) -> None:
    """Put every wrapper in place.  ``executor`` is the instance the workload uses."""
    # crypto: each concrete element type's exponentiation, each group's multi-exp.
    for klass in _subclasses(GroupElement):
        if "exponentiate" in klass.__dict__:
            tracer.install(klass, "exponentiate", "crypto.exp", PRIMITIVE)
    tracer.install(
        Group, "multi_exponentiate", "crypto.multiexp", PRIMITIVE,
        value=lambda result, args, kwargs: len(args[1]),
    )

    # runtime.precompute: element_power is reached through the module global
    # (group.power's hook) and through the hook ElGamal holds.
    tracer.install(precompute.FixedBaseTable, "power", "precompute.power", PRIMITIVE)
    tracer.install(precompute, "element_power", "precompute.element_power", PRIMITIVE)
    tracer.replace(elgamal_module, "_element_power_hook", precompute.element_power)

    # runtime.batch: the RLC folds, wrapped where they are defined so every
    # importer that resolved the name before this point is patched below.
    for name in _BATCH_FOLDS:
        tracer.install(batch_module, name, "runtime.batch", PRIMITIVE)
    import repro.audit.kinds as audit_kinds
    import repro.tally.mixnet as mixnet

    for module in (audit_kinds, mixnet, tally_pipeline):
        for name in _BATCH_FOLDS:
            if name in module.__dict__:
                tracer.replace(module, name, getattr(batch_module, name))

    # runtime.executor / runtime.pipeline / cluster.
    for attr in ("map", "starmap", "submit_calls"):
        if hasattr(type(executor), attr):
            tracer.install(
                _defining_class(type(executor), attr), attr, "executor.map", PRIMITIVE
            )
    tracer.install(StreamPipeline, "run", "pipeline.run", PRIMITIVE)

    # tally: the names TallyPipeline.run calls, at tally.pipeline's import site
    # (verify_signatures already carries the runtime.batch wrapper underneath).
    for attr, span_name in _TALLY_STAGES:
        tracer.install(tally_pipeline, attr, span_name, STAGE)

    # audit.
    tracer.install(audit_checks, "tally_audit_plan", "audit.plan", STAGE,
                   value=lambda result, args, kwargs: len(result) if result is not None else 0)
    tracer.install(audit_api.Verifier, "run", "audit.verify", STAGE,
                   value=lambda result, args, kwargs: len(args[1]))

    # ledger, registration, voting.
    tracer.install(BoardView, "iter_ballot_pages", "ledger.read", STAGE, generator=True)
    tracer.install(BulletinBoard, "post_ballot", "ledger.append", STAGE)
    tracer.install(BulletinBoard, "post_registration", "ledger.append", STAGE)
    tracer.install(RegistrationSession, "register", "registration.session", STAGE)
    tracer.install(VotingClient, "cast", "voting.cast", STAGE)


class _Sum:
    __slots__ = ("calls", "duration", "self_time", "value")

    def __init__(self) -> None:
        self.calls = 0
        self.duration = 0.0
        self.self_time = 0.0
        self.value = 0.0


def summarise(spans: Iterable[Span]) -> Dict[str, _Sum]:
    spans = list(spans)
    selfs = self_times(spans)
    sums: Dict[str, _Sum] = {}
    for span in spans:
        entry = sums.get(span.name)
        if entry is None:
            entry = sums[span.name] = _Sum()
        entry.calls += 1
        entry.duration += span.duration
        entry.self_time += selfs[span.span_id]
        entry.value += span.value
    return sums


def metrics_from_spans(
    spans: List[Span], tally_window: Optional[Tuple[float, float]] = None
) -> Dict[str, float]:
    """The wrapper-derived per-layer metrics of one repetition.

    ``tally.*`` and ``ledger.read.*`` count only spans that began inside the
    tally phase: the audit re-reads the ledger and re-runs the signature
    check through the same names and must not be booked as tally time.
    """
    everything = summarise(spans)
    zero = _Sum()

    def get(name: str) -> _Sum:
        return everything.get(name, zero)

    by_id = {span.span_id: span for span in spans}
    table_hits = sum(
        1
        for span in spans
        if span.name == "precompute.power"
        and span.parent_id in by_id
        and by_id[span.parent_id].name == "precompute.element_power"
    )
    element_power_calls = get("precompute.element_power").calls

    if tally_window is not None:
        start, end = tally_window
        tally = summarise(
            span for span in spans if span.tier == STAGE and start <= span.start <= end
        )
    else:
        tally = {}

    def tally_self(name: str) -> float:
        return tally[name].self_time if name in tally else 0.0

    read = get("ledger.read") if tally_window is None else tally.get("ledger.read", zero)

    return {
        "crypto.exp.calls": get("crypto.exp").calls,
        "crypto.exp.self_s": get("crypto.exp").self_time,
        "crypto.multiexp.calls": get("crypto.multiexp").calls,
        "crypto.multiexp.terms": get("crypto.multiexp").value,
        "crypto.multiexp.self_s": get("crypto.multiexp").self_time,
        "runtime.precompute.power.calls": get("precompute.power").calls,
        "runtime.precompute.power.self_s": get("precompute.power").self_time,
        "runtime.precompute.table_hit_share": (
            table_hits / element_power_calls if element_power_calls else 0.0
        ),
        "runtime.batch.fold.calls": get("runtime.batch").calls,
        "runtime.batch.self_s": get("runtime.batch").self_time,
        "runtime.executor.map.calls": get("executor.map").calls,
        "runtime.executor.map_s": get("executor.map").duration,
        "runtime.pipeline.run_s": get("pipeline.run").duration,
        "registration.session.calls": get("registration.session").calls,
        "registration.self_s": get("registration.session").self_time,
        "voting.cast.calls": get("voting.cast").calls,
        "voting.cast.self_s": get("voting.cast").self_time,
        "tally.sigcheck.self_s": tally_self("tally.sigcheck"),
        "tally.mix.self_s": tally_self("tally.mix"),
        "tally.filter.self_s": tally_self("tally.filter"),
        "tally.decrypt.self_s": tally_self("tally.decrypt"),
        "tally.evidence.self_s": tally_self("tally.evidence"),
        "audit.plan_s": get("audit.plan").duration,
        "audit.verify_s": get("audit.verify").duration,
        "ledger.append.calls": get("ledger.append").calls,
        "ledger.append.self_s": get("ledger.append").self_time,
        "ledger.read.pages": read.value,
        "ledger.read.self_s": read.self_time,
    }
