"""The five workloads.

Every workload is one election seen through a different part of the stack,
and every repetition of it has the same five steps: set up (timed as
``setup_s``), register the voters, cast their ballots, tally, audit.  Three
workloads do this in-process; two drive a gateway in a child process, one
with an open loop and one with a closed one.  A run repeats set-up plus the
four phases until its time is up, checks what every repetition produced, and
reports each phase's fastest repetition: see ``stats.py`` for why.
"""

from __future__ import annotations

import math
import os
import random
import re
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.audit.api import verifier_from_spec
from repro.audit.checks import audit_election, audit_tally
from repro.crypto.ed25519 import ed25519_group
from repro.crypto.modp_group import modp_group_256, modp_group_2048, testing_group
from repro.election import ElectionConfig, VotegralElection
from repro.errors import GatewayError
from repro.gateway.client import CastingSession, GatewayClient, RateLimited
from repro.ledger.api import as_board_view, board_from_spec
from repro.runtime import precompute
from repro.runtime.executor import executor_from_spec
from repro.runtime.pipeline import pipeline_from_spec
from repro.tally.pipeline import TallyPipeline

import generators
import layers
from harness import BenchmarkError, GatewayProcess, PhaseClock
from spans import Span, Tracer
from stats import percentile, tail_report, typical_by_key

ELECTION_ID = "bench"

#: ``repro``'s own factories: a cluster executor ships them to its workers by
#: reference, and the workers can import nothing from this directory.
GROUPS = {
    "ed25519": ed25519_group,
    "modp-2048": modp_group_2048,
    "modp-256": modp_group_256,
    "toy": testing_group,
}


@dataclass
class Repetition:
    """One pass through register, cast, tally and audit."""

    #: Seconds or milliseconds at reference speed by metric name, lower is
    #: better in every one: ``setup_s``, the four universal phases, the
    #: workload's own phase metrics, and ``wall_s`` (the phases' sum), which
    #: the tracing-overhead ratio compares between the halves.
    timings: Dict[str, float]
    #: Per-layer metrics this repetition produced (the rest read 0).
    layers: Dict[str, float]
    attempted: int
    failed: int
    problems: List[str]
    spans: List[Span] = field(default_factory=list)
    #: ``cast_single`` only: due-time → receipt of every timed cast (``inf``
    #: for a failed one) and whether it was sent late.
    latencies: List[float] = field(default_factory=list)
    late: List[bool] = field(default_factory=list)


@dataclass
class Measurement:
    """What a run of repetitions adds up to."""

    #: Each timing's typical repetition (``stats.typical``).
    phases: Dict[str, float]
    #: The timings, per-layer numbers and spans of the one repetition whose
    #: ``wall_s`` is the typical one: what the traced half reports, so that its
    #: layer times add up to phase times that happened together.
    chosen: Dict[str, float]
    layers: Dict[str, float]
    spans: List[Span]
    #: Every repetition's timings, in the order they ran.
    repetitions: List[Dict[str, float]]
    attempted: int
    failed: int
    problems: List[str]
    notes: Dict[str, object] = field(default_factory=dict)


class Workload:
    name = ""

    def __init__(self, sizes: dict, seed: int, scratch: str, corrupt: bool = False) -> None:
        self.sizes = sizes
        self.seed = seed
        self.scratch = scratch
        self.corrupt = corrupt
        self._files = 0

    def setup(self, state: dict, traced: bool) -> None:
        """Fill ``state``; whatever it holds when this raises is still torn down."""
        raise NotImplementedError

    def unit(self, state: dict, tracer: Optional[Tracer], clock: PhaseClock) -> Repetition:
        raise NotImplementedError

    def teardown(self, state: dict) -> None:
        raise NotImplementedError

    def combine(self, measurement: Measurement, repetitions: List[Repetition]) -> None:
        """Adjust what :func:`measure` made of ``repetitions`` (default: nothing)."""

    def new_sqlite_path(self) -> str:
        self._files += 1
        return os.path.join(self.scratch, f"{self.name}-{self._files}.db")


def measure(
    workload: Workload, seconds: float, min_repetitions: int, tracer: Optional[Tracer], probe: bool
) -> Measurement:
    """Repeat set-up, unit and teardown until ``seconds`` have passed.

    ``probe`` is whether the clock scales each phase to reference speed.
    """
    repetitions: List[Repetition] = []
    deadline = time.perf_counter() + seconds
    while len(repetitions) < min_repetitions or time.perf_counter() < deadline:
        state: dict = {}
        clock = PhaseClock(probe)
        try:
            with clock.phase("setup"):
                workload.setup(state, traced=tracer is not None)
            repetition = workload.unit(state, tracer, clock)
        finally:
            workload.teardown(state)
        repetition.timings["setup_s"] = clock.scaled["setup"]
        repetitions.append(repetition)
    rows = [repetition.timings for repetition in repetitions]
    phases = typical_by_key(rows)
    chosen = min(repetitions, key=lambda repetition: abs(repetition.timings["wall_s"] - phases["wall_s"]))
    measurement = Measurement(
        phases=phases,
        chosen=chosen.timings,
        layers=dict(chosen.layers),
        spans=chosen.spans,
        repetitions=rows,
        attempted=sum(repetition.attempted for repetition in repetitions),
        failed=sum(repetition.failed for repetition in repetitions),
        problems=list(dict.fromkeys(p for repetition in repetitions for p in repetition.problems)),
    )
    workload.combine(measurement, repetitions)
    return measurement


def _phase_timings(clock: PhaseClock, voters: int, ballots: int) -> Dict[str, float]:
    """The four universal phases, at reference speed, and their sum."""
    scaled = clock.scaled
    return {
        "wall_s": sum(scaled[name] for name in ("register", "cast", "tally", "audit")),
        "register_ms_per_voter": scaled["register"] / voters * 1e3,
        "cast_ms_per_ballot": scaled["cast"] / ballots * 1e3,
        "tally_s": scaled["tally"],
        "audit_s": scaled["audit"],
    }


def _outcome_problems(
    counts: Dict[int, int], intended: Dict[int, int], num_counted: int, voters: int,
    audit_ok: bool, audit_failed: int, audit_checks: int,
) -> List[str]:
    """The checks every workload makes on what its election published."""
    problems = []
    if counts != intended:
        problems.append(f"counts {counts} differ from the intended {intended}")
    if num_counted != voters:
        problems.append(f"{num_counted} ballots counted for {voters} voters")
    if not audit_ok or audit_failed:
        problems.append(f"audit failed {audit_failed} of {audit_checks} checks")
    return problems


def _remove_sqlite(path: str) -> None:
    for suffix in ("", "-wal", "-shm", "-journal"):
        try:
            os.remove(path + suffix)
        except FileNotFoundError:
            pass


# ---------------------------------------------------------------- in-process


class _InProcess(Workload):
    """What the three workloads that call ``repro`` directly share."""

    def _finish(
        self, state, tracer, clock, result, report, intended, board, extra: Dict[str, float]
    ) -> Repetition:
        spans = tracer.take() if tracer is not None else []
        voters = self.sizes["voters"]
        ballots = result.num_ballots_on_ledger
        chains_start = time.perf_counter()
        chains_ok = board.verify_all_chains()
        chains_seconds = time.perf_counter() - chains_start
        problems = _outcome_problems(
            result.counts, intended, result.num_counted, voters,
            report.ok, report.num_failed, report.num_checks,
        )
        if not chains_ok:
            problems.append("a ledger hash chain does not verify")
        timings = _phase_timings(clock, voters, ballots)
        timings.update(extra)
        traced = layers.metrics_from_spans(spans, clock.window["tally"]) if tracer is not None else {}
        traced.update({
            "tally.run_s": clock.wall["tally"],
            "audit.run_s": clock.wall["audit"],
            "audit.plan.checks": report.num_checks,
            "audit.failed": report.num_failed,
            "audit.checks_per_s": report.num_checks / (traced.get("audit.verify_s") or clock.wall["audit"]),
            "ledger.verify_chains_s": chains_seconds,
            "runtime.precompute.warm_s": state["warm_s"],
        })
        # One operation per ballot on the ledger, per audit check, and for the chains.
        attempted = ballots + report.num_checks + 1
        failed = max(report.num_failed, 1) if problems else 0
        return Repetition(timings, traced, attempted, failed, problems, spans)


class ElectionEd25519(_InProcess):
    """Register → cast → tally → audit on the paper's curve, through ``VotegralElection``."""

    name = "election_ed25519"

    def setup(self, state: dict, traced: bool) -> None:
        sizes = self.sizes
        precompute.clear_tables()
        election = state["election"] = VotegralElection(
            ElectionConfig(
                num_voters=sizes["voters"],
                num_options=sizes["options"],
                num_authority_members=sizes["authority_members"],
                num_mixers=sizes["mixers"],
                proof_rounds=sizes["proof_rounds"],
                election_id=ELECTION_ID,
                group_factory=GROUPS[sizes["group"]],
                executor_spec=sizes["executor"],
                board_spec=sizes["board"],
                pipeline_spec=sizes["pipeline"],
                audit_spec=sizes["audit"],
                audit_evidence=sizes["evidence"],
                telemetry_spec="off",
                bigint_spec="python",
                gateway_spec="off",
            )
        )
        election.run_setup()
        warm_start = time.perf_counter()
        precompute.warm_fixed_base(election.group.generator)
        precompute.warm_fixed_base(election.setup.authority_public_key)
        state["warm_s"] = time.perf_counter() - warm_start

    def teardown(self, state: dict) -> None:
        if "election" in state:
            state["election"].close()

    def unit(self, state: dict, tracer: Optional[Tracer], clock: PhaseClock) -> Repetition:
        election: VotegralElection = state["election"]
        config = election.config
        with layers.installed(tracer, election.executor):
            with clock.phase("register"):
                election.run_registration()
            # Every voter also casts one decoy, so the ledger holds 2N ballots
            # whatever the seed; the seed still picks every choice.
            with clock.phase("cast"):
                cast = election.run_voting(rng=random.Random(self.seed), fake_vote_probability=1.0)
            with clock.phase("tally"):
                result = election.run_tally(verify=False)
            with clock.phase("audit"):
                report = audit_election(
                    election.setup.board,
                    config,
                    authority=election.setup.authority,
                    result=result,
                    kiosk_public_keys=election.setup.registrar.kiosk_public_keys,
                    verifier=config.audit_spec,
                    executor=election.executor,
                )
        intended = {option: 0 for option in range(config.num_options)}
        for choice in cast.values():
            intended[choice] += 1
        extra = {
            "election_s": sum(clock.scaled[name] for name in ("register", "cast", "tally", "audit")),
            "vote_ms_per_voter": clock.scaled["cast"] / config.num_voters * 1e3,
        }
        return self._finish(state, tracer, clock, result, report, intended, election.setup.board, extra)


class TallyModp2048(_InProcess):
    """A synthetic election on a mod-p group: serial and in memory."""

    name = "tally_modp2048"

    def setup(self, state: dict, traced: bool) -> None:
        sizes = self.sizes
        precompute.clear_tables()
        group = GROUPS[sizes["group"]]()
        board_spec = sizes["board"]
        if "<tmpfile>" in board_spec:
            state["path"] = self.new_sqlite_path()
            board_spec = board_spec.replace("<tmpfile>", state["path"])
        election = state["election"] = generators.synthetic_election(
            group, sizes["voters"], sizes["authority_members"], board_spec
        )
        state["warm_s"] = election.warm_seconds
        spawn_start = time.perf_counter()
        executor = state["executor"] = executor_from_spec(sizes["executor"])
        set_warm = getattr(executor, "set_warm", None)
        if callable(set_warm):
            set_warm(groups=[GROUPS[sizes["group"]]])
        executor.warm()
        state["spawn_s"] = time.perf_counter() - spawn_start
        state["pipeline"] = pipeline_from_spec(sizes["pipeline"])
        state["verifier"] = verifier_from_spec(sizes["audit"], executor=executor)

    def teardown(self, state: dict) -> None:
        if "executor" in state:
            state["executor"].close()
        if "election" in state:
            state["election"].board.close()
        if "path" in state:
            _remove_sqlite(state["path"])

    def unit(self, state: dict, tracer: Optional[Tracer], clock: PhaseClock) -> Repetition:
        sizes = self.sizes
        election: generators.SyntheticElection = state["election"]
        pipeline = TallyPipeline(
            group=election.group,
            authority=election.authority,
            num_mixers=sizes["mixers"],
            proof_rounds=sizes["proof_rounds"],
            executor=state["executor"],
            pipeline=state["pipeline"],
            collect_evidence=sizes["evidence"],
        )
        with layers.installed(tracer, state["executor"]):
            with clock.phase("register"):
                credentials = generators.register_voters(election)
            with clock.phase("cast"):
                intended = generators.cast_votes(
                    election, credentials, sizes["options"], random.Random(self.seed),
                    forge_first_ballot=self.corrupt,
                )
            with clock.phase("tally"):
                result = pipeline.run(election.board, sizes["options"])
            with clock.phase("audit"):
                report = audit_tally(
                    election.group,
                    election.authority,
                    election.board,
                    result,
                    verifier=state["verifier"],
                    executor=state["executor"],
                )
        repetition = self._finish(state, tracer, clock, result, report, intended, election.board, {})
        if sizes["executor"].startswith("cluster"):
            repetition.layers["cluster.spawn_s"] = state["spawn_s"]
            repetition.layers["cluster.tasks"] = repetition.layers.get("runtime.executor.map.calls", 0)
        return repetition


class TallyModp256Cluster2(TallyModp2048):
    """The same shape on a cheap group: SQLite board, cluster executor, streaming."""

    name = "tally_modp256_cluster2"


# -------------------------------------------------------------------- gateway


@dataclass
class _Casts:
    """What a gateway workload's cast phase hands back."""

    acknowledged: List[int]
    attempted: int
    refused: int
    shed: int
    #: What one ballot of the timed requests cost.
    ms_per_ballot: float
    #: Round trips (closed loop) or due-time → receipt (open loop), timed requests only.
    latencies: List[float]
    late: List[bool] = field(default_factory=list)


class _CastWorkload(Workload):
    """One election served by a gateway child: what the two cast workloads share."""

    def _wire_count(self) -> int:
        raise NotImplementedError

    def _cast(self, clients: List[GatewayClient], wires: List, clock: PhaseClock) -> _Casts:
        """Cast ``wires`` in order, the timed part of it as the clock's ``cast`` phase."""
        raise NotImplementedError

    def setup(self, state: dict, traced: bool) -> None:
        sizes = self.sizes
        if sizes["voters"] % sizes["connections"]:
            raise BenchmarkError("each voter's ballots must travel on one connection")
        state["traced"] = traced
        state["path"] = self.new_sqlite_path()
        spawn_start = time.perf_counter()
        gateway = state["gateway"] = GatewayProcess(
            sizes["board"].replace("<tmpfile>", state["path"]),
            sizes["mixers"], sizes["proof_rounds"], "mem" if traced else "off",
        )
        state["spawn_s"] = time.perf_counter() - spawn_start
        clients = state["clients"] = [
            GatewayClient(port=gateway.port, client_id=f"bench-{index}")
            for index in range(sizes["connections"])
        ]
        clients[0].create_election(
            ELECTION_ID, sizes["voters"], sizes["options"], sizes["authority_members"], sizes["group"]
        )
        state["session"] = CastingSession(clients[0], ELECTION_ID)
        state["session"].refresh()

    def teardown(self, state: dict) -> None:
        for client in state.get("clients", []):
            client.close()
        if "gateway" in state:
            state["gateway"].stop()
        if "path" in state:
            _remove_sqlite(state["path"])

    def _healthz_p50_ms(self, client: GatewayClient) -> float:
        timings = []
        for _ in range(self.sizes["healthz_round_trips"]):
            start = time.perf_counter()
            client.health()
            timings.append(time.perf_counter() - start)
        return statistics.median(timings) * 1e3

    def _batch_mean_size(self, state: dict) -> float:
        """Mean admitted batch, from the server's own histogram (traced half only)."""
        if not state["traced"]:
            return 0.0
        text = state["clients"][0].metrics()
        found = {}
        for suffix in ("count", "sum"):
            match = re.search(rf"^repro_gateway_batch_size_{suffix}\{{[^}}]*\}} (\S+)$", text, re.M)
            found[suffix] = float(match.group(1)) if match else 0.0
        return found["sum"] / found["count"] if found["count"] else 0.0

    def unit(self, state: dict, tracer: Optional[Tracer], clock: PhaseClock) -> Repetition:
        sizes = self.sizes
        clients: List[GatewayClient] = state["clients"]
        client = clients[0]
        session: CastingSession = state["session"]
        voter_ids = [f"voter-{index:04d}" for index in range(sizes["voters"])]

        with clock.phase("register"):
            for voter_id in voter_ids:
                session.register(voter_id)
        # Between the phases, untimed: the voters' side of casting.
        wires, intended, wire_seconds = generators.ballot_wires(
            session, [session.real_credential(voter_id) for voter_id in voter_ids],
            self._wire_count(), random.Random(self.seed),
        )
        healthz_ms = self._healthz_p50_ms(client)
        casts = self._cast(clients, wires, clock)
        batch_mean = self._batch_mean_size(state)
        with clock.phase("drain"):
            info = client.close_election(ELECTION_ID)
        with clock.phase("tally"):
            tally = client.tally(ELECTION_ID)
        with clock.phase("audit"):
            report = client.audit_report(ELECTION_ID)

        acknowledged = casts.acknowledged
        problems = _outcome_problems(
            {int(option): count for option, count in tally.counts.items()}, intended,
            tally.num_counted, sizes["voters"], report.ok, report.num_failed, report.num_checks,
        )
        if casts.refused or casts.shed:
            problems.append(f"{casts.refused + casts.shed} of {casts.attempted} casts failed or were refused")
        if len(set(acknowledged)) != len(acknowledged):
            problems.append("a ledger sequence number was acknowledged twice")
        if not info.num_ballots == tally.num_ballots_on_ledger == len(acknowledged):
            problems.append(
                f"{len(acknowledged)} casts acknowledged, {info.num_ballots} ballots on the "
                f"closed ledger, {tally.num_ballots_on_ledger} tallied"
            )
        replay, replay_problems = self._stop_and_replay(state, len(acknowledged), clock)
        problems.extend(replay_problems)

        timings = _phase_timings(clock, len(voter_ids), 1)
        timings["cast_ms_per_ballot"] = casts.ms_per_ballot
        timings["drain_replay_s"] = clock.scaled["drain"] + clock.scaled["replay"]
        return Repetition(
            timings=timings,
            layers={
                "gateway.spawn_s": state["spawn_s"],
                "gateway.healthz_p50_ms": healthz_ms,
                "gateway.cast.p90_ms": percentile(casts.latencies, 90.0) * 1e3,
                "gateway.cast.p99_ms": percentile(casts.latencies, 99.0) * 1e3,
                "gateway.requests": casts.attempted // sizes["ballots_per_request"],
                "gateway.failed": casts.refused,
                "gateway.shed": casts.shed,
                "gateway.batch.mean_size": batch_mean,
                "voting.wire_build_s": wire_seconds,
                "tally.run_s": clock.wall["tally"],
                "audit.run_s": clock.wall["audit"],
                "audit.plan.checks": report.num_checks,
                "audit.failed": report.num_failed,
                "audit.checks_per_s": report.num_checks / clock.wall["audit"],
                "ledger.drain_s": clock.wall["drain"],
                "ledger.replay_per_s": len(acknowledged) / clock.wall["replay"],
                "ledger.bytes_per_ballot": replay["file_bytes"] / max(1, len(acknowledged)),
                "ledger.read.pages": replay["pages"],
                "ledger.verify_chains_s": replay["chains_seconds"],
            },
            attempted=casts.attempted + report.num_checks + 1,
            failed=(casts.refused + casts.shed) or (1 if problems else 0),
            problems=list(dict.fromkeys(problems)),
            latencies=casts.latencies,
            late=casts.late,
        )

    def _stop_and_replay(
        self, state: dict, acknowledged: int, clock: PhaseClock
    ) -> Tuple[Dict[str, float], List[str]]:
        """Stop the gateway, then read its SQLite file back as a restart would.

        Timed as the clock's ``replay`` phase.  The reopened board must verify
        and must have the live board's ballot count and chain head.
        """
        problems = []
        live = state["gateway"].stop().get("boards", {}).get(ELECTION_ID)
        if live is None:
            raise BenchmarkError("the gateway child did not report its board")
        file_bytes = os.path.getsize(state["path"])
        with clock.phase("replay"):
            backend = board_from_spec(f"sqlite:{state['path']}", group=GROUPS[self.sizes["group"]]())
            try:
                view = as_board_view(backend)
                pages = replayed = 0
                for page in view.iter_ballot_pages(
                    election_id=ELECTION_ID, page_size=self.sizes["replay_page_size"]
                ):
                    pages += 1
                    replayed += len(page.records)
                chains_start = time.perf_counter()
                chains_ok = view.verify_all_chains()
                chains_seconds = time.perf_counter() - chains_start
                head = view.ballot_log.head().head_hash.hex()
            finally:
                backend.close()
        if not chains_ok:
            problems.append("the reopened ledger's hash chains do not verify")
        if not replayed == live["num_ballots"] == acknowledged:
            problems.append(
                f"replayed {replayed} ballots, the live board held {live['num_ballots']}, "
                f"{acknowledged} were acknowledged"
            )
        if head != live["ballot_head"]:
            problems.append("the reopened ballot chain head differs from the live one")
        return {"chains_seconds": chains_seconds, "pages": pages, "file_bytes": file_bytes}, problems


class CastSingle(_CastWorkload):
    """Open loop: one-ballot requests at a fixed rate, latency from the due time."""

    name = "cast_single"

    def _wire_count(self) -> int:
        sizes = self.sizes
        return sizes["warmup_casts"] + max(1, round(sizes["rate_per_s"] * sizes["loop_seconds"]))

    def _cast(self, clients: List[GatewayClient], wires: List, clock: PhaseClock) -> _Casts:
        sizes = self.sizes
        warmup = sizes["warmup_casts"]
        rate = float(sizes["rate_per_s"])
        late_after = sizes["late_threshold_ms"] / 1e3
        latencies = [math.inf] * len(wires)
        late = [False] * len(wires)
        receipts: List[Optional[int]] = [None] * len(wires)
        shed = [0] * len(clients)
        errors: List[BaseException] = []
        # Wire i is voter i mod V's and travels on connection i mod C, so one
        # voter's ballots reach the ledger in the order they were built.
        for index in range(warmup):
            response = clients[index % len(clients)].cast_ballots(ELECTION_ID, [wires[index]])
            receipts[index] = response.ledger_seqs[0]

        def sender(slot: int, origin: float) -> None:
            client = clients[slot]
            try:
                for index in range(warmup, len(wires)):
                    if index % len(clients) != slot:
                        continue
                    due = origin + (index - warmup) / rate
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    late[index] = time.perf_counter() - due > late_after
                    try:
                        response = client.cast_ballots(ELECTION_ID, [wires[index]])
                    except RateLimited:
                        shed[slot] += 1
                        continue
                    except GatewayError:
                        continue
                    latencies[index] = time.perf_counter() - due
                    receipts[index] = response.ledger_seqs[0]
            except BaseException as error:  # re-raised on the main thread below
                errors.append(error)

        with clock.phase("cast"):
            origin = time.perf_counter() + 0.05
            threads = [
                threading.Thread(target=sender, args=(slot, origin)) for slot in range(len(clients))
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        if errors:
            raise errors[0]
        refused = sum(1 for seq in receipts[warmup:] if seq is None)
        return _Casts(
            acknowledged=[seq for seq in receipts if seq is not None],
            attempted=len(wires) - warmup,
            refused=refused - sum(shed),
            shed=sum(shed),
            ms_per_ballot=percentile(latencies[warmup:], 50.0) * 1e3,
            latencies=latencies[warmup:],
            late=late[warmup:],
        )

    def combine(self, measurement: Measurement, repetitions: List[Repetition]) -> None:
        """The median is over every timed cast of the run, not over one repetition's."""
        sizes = self.sizes
        latencies = [latency for repetition in repetitions for latency in repetition.latencies]
        late = [flag for repetition in repetitions for flag in repetition.late]
        late_share = sum(late) / len(late)
        if late_share > sizes["max_late_share"]:
            raise BenchmarkError(
                f"the load generator sent {late_share:.1%} of its requests more than "
                f"{sizes['late_threshold_ms']} ms late; the run is not a measurement"
            )
        p50 = percentile(latencies, 50.0)
        # The schedule fixes the loop's wall clock, so the overhead ratio compares medians.
        pooled = {"cast_ms_per_ballot": p50 * 1e3, "cast_p50_ms": p50 * 1e3, "wall_s": p50}
        measurement.phases.update(pooled)
        measurement.chosen = {**measurement.chosen, **pooled}
        measurement.layers.update({
            "gateway.cast.p90_ms": percentile(latencies, 90.0) * 1e3,
            "gateway.cast.p99_ms": percentile(latencies, 99.0) * 1e3,
            "gateway.generator.late_share": late_share,
        })
        top_pct, top_value = tail_report(latencies)
        measurement.notes.update(
            samples=len(latencies),
            highest_percentile=top_pct,
            highest_percentile_ms=None if top_value is None else top_value * 1e3,
        )


class CastBulk(_CastWorkload):
    """Closed loop: one connection sending 64-ballot requests back to back."""

    name = "cast_bulk"

    def _wire_count(self) -> int:
        return self.sizes["distinct_wires"]

    def _cast(self, clients: List[GatewayClient], wires: List, clock: PhaseClock) -> _Casts:
        sizes = self.sizes
        client = clients[0]
        chunk = sizes["ballots_per_request"]
        requests = [wires[index:index + chunk] for index in range(0, len(wires), chunk)]
        # Re-votes: the ledger is append-only and the tally counts a voter's
        # last ballot, so the same wires are cast again on every pass.  The
        # first pass warms the path and is not timed.
        acknowledged: List[int] = []
        for request in requests:
            acknowledged.extend(client.cast_ballots(ELECTION_ID, request).ledger_seqs)
        warmup = len(acknowledged)
        round_trips: List[float] = []
        sent = refused = shed = 0
        with clock.phase("cast"):
            for request in requests * (sizes["passes"] - 1):
                sent += 1
                request_start = time.perf_counter()
                try:
                    response = client.cast_ballots(ELECTION_ID, request)
                except RateLimited:
                    shed += 1
                    continue
                except GatewayError:
                    refused += 1
                    continue
                round_trips.append(time.perf_counter() - request_start)
                acknowledged.extend(response.ledger_seqs)
        return _Casts(
            acknowledged=acknowledged,
            attempted=sent * chunk,
            refused=refused * chunk,
            shed=shed * chunk,
            ms_per_ballot=clock.scaled["cast"] / max(1, len(acknowledged) - warmup) * 1e3,
            latencies=round_trips,
        )

    def combine(self, measurement: Measurement, repetitions: List[Repetition]) -> None:
        for timings in (measurement.phases, measurement.chosen):
            timings["casts_per_s"] = 1e3 / timings["cast_ms_per_ballot"]


WORKLOAD_CLASSES = {
    klass.name: klass
    for klass in (ElectionEd25519, TallyModp2048, TallyModp256Cluster2, CastSingle, CastBulk)
}
