"""Central registry of telemetry span and metric names.

Every ``telemetry.span`` / ``counter`` / ``gauge`` / ``histogram`` call site
must pass a string literal drawn from this module (enforced statically by
``repro.analysis`` rule REP005).  Two properties hang off that discipline:

- **Schedule-independent traces.**  The same tally on a serial or a
  cluster executor must emit identical span names, or trace
  diffing (and the bench gates built on span aggregates) silently compares
  different things.  A literal drawn from one registry cannot drift per
  schedule the way an interpolated name can.
- **A closed cardinality budget.**  Dashboards and the Prometheus export
  enumerate this module; a name minted ad hoc at a call site is a metric
  nobody graphs and a cardinality leak nobody approved.

Names are grouped by instrument type because the analyzer checks the pair
(instrument, name): recording a span name on a counter is almost always a
call-site typo.  Dynamic *labels* (worker ids, shard indices) stay free-form
— only the name is pinned.
"""

from __future__ import annotations

from typing import FrozenSet

# ---------------------------------------------------------------- spans

SPAN_NAMES: FrozenSet[str] = frozenset(
    {
        "audit.run",
        "cluster.task",
        "cluster.warm",
        "executor.map",
        "gateway.batch.admit",
        "gateway.client.request",
        "gateway.request",
        "ledger.append",
        "ledger.flush",
        "ledger.read",
        "pipeline.stage",
        "registration.phase",
        "registration.print",
        "registration.scan",
        "tally.decrypt",
        "tally.join",
        "tally.mix",
        "tally.sig-check",
        "tally.tag",
    }
)

# -------------------------------------------------------------- counters

COUNTER_NAMES: FrozenSet[str] = frozenset(
    {
        "audit.checks",
        "audit.fold.equations",
        "audit.reports",
        "cluster.dispatch",
        "cluster.enroll",
        "cluster.heartbeat.miss",
        "cluster.reassign",
        "cluster.worker.lost",
        "gateway.casts",
        "gateway.errors",
        "gateway.shed",
        "gateway.stream.events",
        "ledger.append.ballots",
    }
)

# ---------------------------------------------------------------- gauges

GAUGE_NAMES: FrozenSet[str] = frozenset(
    {
        "gateway.queue.depth",
        "pipeline.queue.depth",
    }
)

# ------------------------------------------------------------ histograms

HISTOGRAM_NAMES: FrozenSet[str] = frozenset(
    {
        "gateway.batch.size",
        "gateway.request.seconds",
        "ledger.flush.records",
    }
)

#: Every registered name, any instrument.
ALL_NAMES: FrozenSet[str] = SPAN_NAMES | COUNTER_NAMES | GAUGE_NAMES | HISTOGRAM_NAMES

#: Instrument → allowed names, keyed by the ``repro.telemetry`` entry point.
NAMES_BY_INSTRUMENT = {
    "span": SPAN_NAMES,
    "counter": COUNTER_NAMES,
    "gauge": GAUGE_NAMES,
    "histogram": HISTOGRAM_NAMES,
}
