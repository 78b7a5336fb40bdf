"""Simulation of the §7.5 user study.

:class:`UsabilityStudy` runs ``n`` simulated participants through an actual
TRIP registration (on the toy group, so a 150-participant study takes
seconds), applying the behaviour model to decide who completes the workflow,
who detects a malicious kiosk when exposed to one, and what SUS score they
report.  The aggregate :class:`StudyResults` mirror the numbers in §7.5 and
feed the E8 benchmark table.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import List, Optional

from repro.crypto.group import Group
from repro.crypto.modp_group import testing_group
from repro.registration.protocol import RegistrationSession
from repro.registration.setup import ElectionSetup
from repro.registration.voter import Voter
from repro.security.analysis import kiosk_undetected_probability
from figures.usability.behavior import PUBLISHED_STUDY, BehaviorProfile, VoterBehaviorModel


@dataclass
class StudyResults:
    """Aggregate outcomes of a simulated usability study."""

    participants: int
    completed_registration: int
    detections_educated: int
    exposed_educated: int
    detections_uneducated: int
    exposed_uneducated: int
    sus_scores: List[float] = field(default_factory=list)

    @property
    def success_rate(self) -> float:
        return self.completed_registration / self.participants if self.participants else 0.0

    @property
    def detection_rate_educated(self) -> float:
        return self.detections_educated / self.exposed_educated if self.exposed_educated else 0.0

    @property
    def detection_rate_uneducated(self) -> float:
        return self.detections_uneducated / self.exposed_uneducated if self.exposed_uneducated else 0.0

    @property
    def sus_mean(self) -> float:
        return statistics.fmean(self.sus_scores) if self.sus_scores else 0.0

    def kiosk_survival_probability(self, num_voters: int, educated: bool = False) -> float:
        """P[a malicious kiosk survives ``num_voters`` registrations undetected]."""
        rate = self.detection_rate_educated if educated else self.detection_rate_uneducated
        return kiosk_undetected_probability(rate, num_voters)


@dataclass
class UsabilityStudy:
    """Drives simulated participants through real TRIP registrations."""

    participants: int = 150
    educated_fraction: float = 0.5
    exposed_to_malicious_kiosk_fraction: float = 0.5
    profile: BehaviorProfile = PUBLISHED_STUDY
    seed: Optional[int] = None
    group: Optional[Group] = None

    def run(self) -> StudyResults:
        group = self.group if self.group is not None else testing_group()
        behavior = VoterBehaviorModel(profile=self.profile, seed=self.seed)
        voter_ids = [f"participant-{index:03d}" for index in range(self.participants)]
        setup = ElectionSetup.run(group, voter_ids, num_authority_members=2, envelopes_per_voter=3)
        session = RegistrationSession(setup=setup)

        completed = 0
        detections_educated = exposed_educated = 0
        detections_uneducated = exposed_uneducated = 0
        sus_scores: List[float] = []

        for index, voter_id in enumerate(voter_ids):
            educated = (index / self.participants) < self.educated_fraction
            exposed = ((index % 100) / 100.0) < self.exposed_to_malicious_kiosk_fraction

            voter = Voter(voter_id, num_fake_credentials=max(0, behavior.num_fake_credentials()))
            if behavior.completes_registration():
                outcome = session.register(voter, activate=True)
                if outcome.real_activated:
                    completed += 1
            sus_scores.append(behavior.sus_score())

            if exposed:
                detected = behavior.detects_malicious_kiosk(educated)
                if educated:
                    exposed_educated += 1
                    detections_educated += int(detected)
                else:
                    exposed_uneducated += 1
                    detections_uneducated += int(detected)

        return StudyResults(
            participants=self.participants,
            completed_registration=completed,
            detections_educated=detections_educated,
            exposed_educated=exposed_educated,
            detections_uneducated=detections_uneducated,
            exposed_uneducated=exposed_uneducated,
            sus_scores=sus_scores,
        )


def run_published_study(seed: Optional[int] = 7) -> StudyResults:
    """The 150-participant configuration of the paper's main study."""
    return UsabilityStudy(participants=150, seed=seed).run()
