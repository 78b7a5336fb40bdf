"""The §7.5 usability-study model.

We cannot re-run a 150-participant human-subject study, so this package
models voter behaviour stochastically with the published rates and reproduces
the quantitative claims of §7.5: the 83 % end-to-end success rate, the System
Usability Scale score of 70.4, the 47 % (with security education) and 10 %
(without) malicious-kiosk detection rates, and the derived probability that a
malicious kiosk survives 50 / 1000 voters undetected.
"""

from figures.usability.behavior import VoterBehaviorModel, BehaviorProfile, PUBLISHED_STUDY
from figures.usability.study import UsabilityStudy, StudyResults, run_published_study

__all__ = [
    "VoterBehaviorModel",
    "BehaviorProfile",
    "PUBLISHED_STUDY",
    "UsabilityStudy",
    "StudyResults",
    "run_published_study",
]
