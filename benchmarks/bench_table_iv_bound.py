"""E9 — Theorem IV: the integrity adversary's success bound.

Evaluates the envelope-stuffing bound of §5.1 / Appendix F.3 across booth
sizes and voter behaviours, cross-checks it against the Monte-Carlo game run
on the combinatorial model, and shows the strong-iterative decay across many
target voters (the reason the paper calls repeated attacks "negligible").
"""

from __future__ import annotations


from figures.tables import ResultTable
from repro.security.analysis import (
    geometric_credential_distribution,
    iv_adversary_success_bound,
    iv_success_over_population,
    uniform_credential_distribution,
)
from repro.security.games import IndividualVerifiabilityGame

BOOTH_SIZES = [10, 20, 50, 100]
BEHAVIOURS = {
    "always 1 fake (n_c = 2)": {2: 1.0},
    "uniform 1-4 credentials": uniform_credential_distribution(4),
    "geometric, mean 1.5 fakes": geometric_credential_distribution(1.5),
}


def test_theorem_iv_bound_table():
    table = ResultTable(
        title="Theorem IV — envelope-stuffing success probability (analytic vs Monte-Carlo)",
        columns=["booth envelopes n_E", "voter behaviour D_c", "bound", "best k", "empirical", "P over 20 voters"],
    )
    rows = []
    for num_envelopes in BOOTH_SIZES:
        for label, distribution in BEHAVIOURS.items():
            bound, best_k = iv_adversary_success_bound(num_envelopes, distribution, return_best_k=True)
            game = IndividualVerifiabilityGame(num_envelopes, best_k, distribution)
            empirical = game.run(trials=2000).empirical_rate
            iterated = iv_success_over_population(num_envelopes, distribution, 20)
            rows.append((num_envelopes, label, bound, best_k, empirical, iterated))
            table.add_row(
                num_envelopes, label, f"{bound:.4f}", best_k, f"{empirical:.4f}", f"{iterated:.2e}"
            )
    table.print()

    for num_envelopes, label, bound, best_k, empirical, iterated in rows:
        # The Monte-Carlo rate must not exceed the analytic bound (within noise).
        assert empirical <= bound + 0.04
        # Iterating over 20 voters decays the probability geometrically.
        assert iterated <= bound**10
    # Larger booths never help the adversary, and strictly hurt it whenever
    # voters always create at least one fake credential.  (When D_c has mass on
    # n_c = 1, "stuff every envelope" wins with exactly P[n_c = 1] regardless of
    # the booth size — the residual floor the theorem's expectation captures.)
    for label, distribution in BEHAVIOURS.items():
        assert iv_adversary_success_bound(100, distribution) <= iv_adversary_success_bound(10, distribution) + 1e-12
    assert iv_adversary_success_bound(100, {2: 1.0}) < iv_adversary_success_bound(10, {2: 1.0})
