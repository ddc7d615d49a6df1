"""Fig. 5: cost of misclassifying the unknown FT job as IS or EP.

Paper takeaways to reproduce: (1) underprediction slows the unknown job,
overprediction slows the sensitive co-scheduled jobs; (2) the damage scales
with the relative size of the misclassified job (§6.1.2).  The claims
checked are ``scorecard.CLAIMS["fig5"]``.
"""

from repro.experiments import fig5
from repro.experiments.fig5 import worst_excess_slowdown
from repro.experiments.scorecard import score


def test_fig5_misclassification_quadrants(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig5.run_fig5(n_budgets=30), rounds=1, iterations=1
    )
    card = score("fig5", result)
    report(
        fig5.format_table(result) + "\n\n" + card.render(),
        under_small_ft=round(worst_excess_slowdown(result, "under-small", "ft(unknown)"), 4),
        under_large_ft=round(worst_excess_slowdown(result, "under-large", "ft(unknown)"), 4),
        over_small_ep=round(worst_excess_slowdown(result, "over-small", "ep"), 4),
        over_large_ep=round(worst_excess_slowdown(result, "over-large", "ep"), 4),
    )
    assert card.all_passed, card.render()
