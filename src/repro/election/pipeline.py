"""The complete Votegral election pipeline.

:class:`VotegralElection` strings together every phase the paper's end-to-end
evaluation (§7.4) measures: setup, in-person registration via TRIP, ballot
casting (real and fake), and the verifiable tally.  It is the object the
examples and the Figure 5 benchmarks drive.
"""

from __future__ import annotations

import random
import secrets
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.audit.api import AuditReport
from repro.audit.checks import audit_election
from repro.election.config import ElectionConfig
from repro.errors import ProtocolError
from repro.peripherals.hardware import hardware_profile
from repro.registration.protocol import RegistrationOutcome, RegistrationSession
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter
from repro.tally.pipeline import TallyPipeline, TallyResult
from repro.voting.client import VotingClient


@dataclass
class PhaseTiming:
    """Wall-clock seconds spent in each election phase (the Fig. 5 quantities)."""

    setup_seconds: float = 0.0
    registration_seconds: float = 0.0
    voting_seconds: float = 0.0
    tally_seconds: float = 0.0

    def per_voter(self, num_voters: int) -> Dict[str, float]:
        voters = max(1, num_voters)
        return {
            "registration": self.registration_seconds / voters,
            "voting": self.voting_seconds / voters,
            "tally": self.tally_seconds / voters,
        }


@dataclass
class ElectionReport:
    """The outcome of a complete simulated election."""

    config: ElectionConfig
    result: TallyResult
    timing: PhaseTiming
    intended_counts: Dict[int, int]
    registration_outcomes: List[RegistrationOutcome]
    universally_verified: bool

    @property
    def counts_match_intent(self) -> bool:
        """Did the published tally equal the voters' real intentions?"""
        return self.result.counts == self.intended_counts


class VotegralElection:
    """Drives a full election according to an :class:`ElectionConfig`."""

    def __init__(self, config: Optional[ElectionConfig] = None):
        self.config = config or ElectionConfig()
        # Telemetry attaches first so executor construction (pool spin-up,
        # cluster enrollment) is already observable.
        self.config.make_telemetry()
        self.group = self.config.make_group()
        self.executor = self.config.make_executor()
        self.pipeline_spec = self.config.make_pipeline()
        self.setup: Optional[ElectionSetup] = None
        self._session: Optional[RegistrationSession] = None
        self.clients: Dict[str, VotingClient] = {}
        self.outcomes: List[RegistrationOutcome] = []
        self.timing = PhaseTiming()
        # Phase outputs, initialized up front so report paths cannot hit
        # AttributeError when phases are driven out of order.
        self._intended: Dict[str, int] = {}
        self._verified: bool = False
        #: The structured outcome of the post-tally audit (set by run_tally).
        self.audit_report: Optional[AuditReport] = None

    def close(self) -> None:
        """Release the runtime executor's worker pool and the board backend.

        Pool-backed executors (``thread``/``process`` specs) hold OS threads
        or processes, and board backends may hold flusher threads or database
        connections; long-lived callers running many elections should close
        each one (or use the election as a context manager).
        """
        self.executor.close()
        if self.setup is not None:
            self.setup.board.close()

    def __enter__(self) -> "VotegralElection":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ phases

    def run_setup(self) -> ElectionSetup:
        start = time.perf_counter()
        self.setup = ElectionSetup.run(
            self.group,
            self.config.voter_ids(),
            num_authority_members=self.config.num_authority_members,
            envelopes_per_voter=self.config.envelopes_per_voter,
            board=self.config.make_board(self.group),
        )
        self.timing.setup_seconds = time.perf_counter() - start
        return self.setup

    def register_voter(self, voter_id: str, activate: bool = True) -> RegistrationOutcome:
        """Walk one voter through TRIP at this election's registrar site.

        The site (one kiosk, one official, one booth supply) opens with the
        first voter; nothing is kept per voter.
        """
        if self._session is None:
            self._session = RegistrationSession(
                setup=self.setup, profile=hardware_profile(self.config.hardware_profile)
            )
        voter = Voter(voter_id, num_fake_credentials=self.config.fake_credentials_per_voter)
        return self._session.register(voter, activate=activate)

    def run_registration(self, activate: bool = True) -> List[RegistrationOutcome]:
        if self.setup is None:
            self.run_setup()
        start = time.perf_counter()
        for voter_id in self.config.voter_ids():
            outcome = self.register_voter(voter_id, activate=activate)
            self.outcomes.append(outcome)
            client = VotingClient(
                group=self.group,
                board=self.setup.board,
                authority_public_key=self.setup.authority_public_key,
            )
            for report in outcome.activation_reports:
                if report.success and report.credential is not None:
                    client.add_credential(report.credential)
            self.clients[voter_id] = client
        self.timing.registration_seconds = time.perf_counter() - start
        return self.outcomes

    def run_voting(
        self,
        choices: Optional[Dict[str, int]] = None,
        fake_vote_probability: float = 0.5,
        rng: Optional[random.Random] = None,
    ) -> Dict[str, int]:
        """Cast one real ballot per voter (and, with some probability, a fake one).

        ``rng`` injects the randomness source for generated choices and the
        fake-vote coin flips — pass a seeded :class:`random.Random` for
        reproducible benchmark runs and cross-backend equivalence tests.  The
        default draws from :mod:`secrets`, the adversarial-model-appropriate
        source.
        """
        if not self.clients:
            self.run_registration()
        randbelow = rng.randrange if rng is not None else secrets.randbelow
        if choices is None:
            choices = {
                voter_id: randbelow(self.config.num_options)
                for voter_id in self.config.voter_ids()
            }
        start = time.perf_counter()
        for voter_id, client in self.clients.items():
            choice = choices[voter_id]
            client.cast_real(choice, self.config.num_options, election_id=self.config.election_id)
            if client.fake_credentials() and randbelow(1000) < fake_vote_probability * 1000:
                decoy = randbelow(self.config.num_options)
                client.cast_fake(decoy, self.config.num_options, election_id=self.config.election_id)
        self.timing.voting_seconds = time.perf_counter() - start
        self._intended = choices
        return choices

    def tally(self) -> TallyResult:
        """Run the tally pipeline over whatever the board holds."""
        pipeline = TallyPipeline(
            group=self.group,
            authority=self.setup.authority,
            num_mixers=self.config.num_mixers,
            proof_rounds=self.config.proof_rounds,
            executor=self.executor,
            pipeline=self.pipeline_spec,
            collect_evidence=self.config.audit_evidence,
        )
        return pipeline.run(self.setup.board, self.config.num_options, self.config.election_id)

    def audit(self, result: Optional[TallyResult] = None) -> AuditReport:
        """The external-auditor path: chains, registration records and, given a
        published ``result``, the full tally re-verification, under the
        configured strategy."""
        return audit_election(
            self.setup.board,
            self.config,
            authority=self.setup.authority,
            result=result,
            kiosk_public_keys=self.setup.registrar.kiosk_public_keys,
            executor=self.executor,
        )

    def run_tally(self, verify: bool = True) -> TallyResult:
        if self.setup is None or self.setup.board.num_ballots == 0:
            raise ProtocolError("voting must happen before tallying")
        start = time.perf_counter()
        result = self.tally()
        self.timing.tally_seconds = time.perf_counter() - start
        if verify:
            self.audit_report = self.audit(result)
            self._verified = self.audit_report.ok
        else:
            self._verified = False
        return result

    # ------------------------------------------------------------------ end-to-end

    def run(
        self,
        choices: Optional[Dict[str, int]] = None,
        verify: bool = True,
        rng: Optional[random.Random] = None,
    ) -> ElectionReport:
        """Run every phase and return the consolidated report."""
        self.run_setup()
        self.run_registration()
        cast = self.run_voting(choices, rng=rng)
        result = self.run_tally(verify=verify)
        intended: Dict[int, int] = {option: 0 for option in range(self.config.num_options)}
        for choice in cast.values():
            intended[choice] += 1
        return ElectionReport(
            config=self.config,
            result=result,
            timing=self.timing,
            intended_counts=intended,
            registration_outcomes=self.outcomes,
            universally_verified=self._verified if verify else False,
        )
