"""Common interface and measurement machinery for the baseline systems."""

from __future__ import annotations

import abc
import enum
import time
from dataclasses import dataclass
from typing import Dict

from repro.crypto.elgamal import ElGamal
from repro.crypto.group import Group


class PhaseName(enum.Enum):
    """The election phases Figure 5 reports."""

    REGISTRATION = "Registration"
    VOTING = "Voting"
    TALLY = "Tally"


@dataclass
class PhaseMeasurement:
    """Measured cost of one phase for a given voter population."""

    system: str
    phase: PhaseName
    num_voters: int
    wall_seconds: float
    extrapolated: bool = False

    @property
    def per_voter_seconds(self) -> float:
        return self.wall_seconds / max(1, self.num_voters)


@dataclass
class CostModel:
    """Asymptotic cost model fitted from a measurement, used for extrapolation.

    ``per_voter`` covers the linear part and ``per_pair`` the quadratic part
    (Civitas' pairwise PETs); other systems leave ``per_pair`` at zero.
    """

    per_voter_seconds: float
    per_pair_seconds: float = 0.0
    fixed_seconds: float = 0.0

    def predict(self, num_voters: int) -> float:
        pairs = num_voters * (num_voters - 1) / 2
        return self.fixed_seconds + self.per_voter_seconds * num_voters + self.per_pair_seconds * pairs


class VotingSystemBaseline(abc.ABC):
    """A baseline e-voting system expressed as per-phase crypto kernels.

    Subclasses implement the per-voter / per-ballot cryptographic work of each
    phase; this base class provides timing, per-voter aggregation and the
    quadratic/linear extrapolation used to extend measured populations to the
    paper's 10⁶-voter configurations.
    """

    name: str = "baseline"
    #: Number of talliers / mixers / control components (the paper uses four).
    num_talliers: int = 4
    #: Whether the tally is quadratic in the number of ballots (Civitas).
    quadratic_tally: bool = False

    def __init__(self, group: Group, num_options: int = 2):
        self.group = group
        self.num_options = num_options
        self.elgamal = ElGamal(group)
        self._model_cache: Dict[tuple, CostModel] = {}
        #: Exponentiations charged by the kernels so far (an ElGamal
        #: encryption is charged as its two): a count that does not move
        #: with the host's load, unlike the phase timings.
        self.exps_charged = 0

    # ----------------------------------------------------------------- kernels

    @abc.abstractmethod
    def register_one(self) -> None:
        """The registration-phase crypto for a single voter."""

    @abc.abstractmethod
    def vote_one(self, choice: int) -> None:
        """The voting-phase crypto for a single ballot."""

    @abc.abstractmethod
    def tally_prepare(self, num_ballots: int) -> None:
        """Fixed tally work that does not scale with the ballots (e.g. key ceremonies)."""

    @abc.abstractmethod
    def tally_per_ballot(self) -> None:
        """Linear tally work for one ballot (mixing, proofs, decryption shares)."""

    def tally_per_pair(self) -> None:
        """Quadratic tally work for one ballot pair (PETs); default none."""

    # ---------------------------------------------------------------- measurement

    def measure_phase(self, phase: PhaseName, num_voters: int) -> PhaseMeasurement:
        start = time.perf_counter()
        if phase is PhaseName.REGISTRATION:
            for _ in range(num_voters):
                self.register_one()
        elif phase is PhaseName.VOTING:
            for index in range(num_voters):
                self.vote_one(index % self.num_options)
        else:
            self.tally_prepare(num_voters)
            for _ in range(num_voters):
                self.tally_per_ballot()
            if self.quadratic_tally:
                # One PET per ballot pair; measured directly for small n.
                for left in range(num_voters):
                    for _ in range(left + 1, num_voters):
                        self.tally_per_pair()
        elapsed = time.perf_counter() - start
        return PhaseMeasurement(system=self.name, phase=phase, num_voters=num_voters, wall_seconds=elapsed)

    def fit_cost_model(self, phase: PhaseName, sample_voters: int = 50) -> CostModel:
        """Measure a small population and fit the per-voter / per-pair constants."""
        measurement = self.measure_phase(phase, sample_voters)
        if phase is PhaseName.TALLY and self.quadratic_tally:
            # Separate the linear and quadratic parts with two samples.
            small = self.measure_phase(phase, max(4, sample_voters // 4))
            n1, t1 = small.num_voters, small.wall_seconds
            n2, t2 = measurement.num_voters, measurement.wall_seconds
            pairs1 = n1 * (n1 - 1) / 2
            pairs2 = n2 * (n2 - 1) / 2
            denominator = pairs2 * n1 - pairs1 * n2
            if denominator <= 0:
                return CostModel(per_voter_seconds=t2 / n2)
            per_pair = (t2 * n1 - t1 * n2) / denominator
            per_voter = (t1 - per_pair * pairs1) / n1
            return CostModel(per_voter_seconds=max(per_voter, 0.0), per_pair_seconds=max(per_pair, 0.0))
        return CostModel(per_voter_seconds=measurement.per_voter_seconds)

    def estimate_phase(self, phase: PhaseName, num_voters: int, sample_voters: int = 50) -> PhaseMeasurement:
        """Measure directly when feasible, otherwise extrapolate from a sample.

        Fitted cost models are cached per (phase, sample size) so sweeping a
        population range re-measures each phase only once.
        """
        if num_voters <= sample_voters and not (self.quadratic_tally and phase is PhaseName.TALLY and num_voters > 200):
            return self.measure_phase(phase, num_voters)
        cache_key = (phase, sample_voters)
        if cache_key not in self._model_cache:
            self._model_cache[cache_key] = self.fit_cost_model(phase, sample_voters)
        model = self._model_cache[cache_key]
        return PhaseMeasurement(
            system=self.name,
            phase=phase,
            num_voters=num_voters,
            wall_seconds=model.predict(num_voters),
            extrapolated=True,
        )

    # ---------------------------------------------------------------- op helpers

    def _exp(self, count: int = 1) -> None:
        """Perform ``count`` modular exponentiations (the dominant cost unit)."""
        self.exps_charged += count
        for _ in range(count):
            self.group.power(self.group.random_scalar())

    def _encrypt(self, count: int = 1) -> None:
        self.exps_charged += 2 * count
        for _ in range(count):
            self.elgamal.encrypt(self._public_key(), self.group.generator)

    def _public_key(self):
        if not hasattr(self, "_cached_public_key"):
            self._cached_public_key = self.group.power(self.group.random_scalar())
        return self._cached_public_key
