"""Fig. 8: two SP instances, one possibly misclassified as EP (840 W shared).

Paper bars: all slowdowns are small (SP is insensitive; the budget barely
binds it); misclassifying one instance as power-hungry EP steals power from
its co-scheduled twin, producing a small but visible slowdown there, which
feedback then reduces.  The claims checked are ``scorecard.CLAIMS["fig8"]``.
"""

import numpy as np

from repro.experiments import fig6
from repro.experiments.scorecard import score


def mean(result, policy, job):
    return float(np.mean(result.slowdowns[policy][job]))


def test_fig8_overestimate_insensitive_pair(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig6.run_fig8(trials=6, seed=2, tick=1.0), rounds=1, iterations=1
    )
    card = score("fig8", result)
    report(
        fig6.format_table(result) + "\n\n" + card.render(),
        agnostic=round(mean(result, "Performance Agnostic", "sp"), 4),
        aware=round(mean(result, "Performance Aware", "sp"), 4),
        cojob_under_misclassification=round(mean(result, "Over-estimate sp", "sp"), 4),
        cojob_with_feedback=round(
            mean(result, "Over-estimate sp, with feedback", "sp"), 4
        ),
    )
    assert card.all_passed, card.render()
