"""Fig. 8: two SP instances, one possibly misclassified as EP (840 W shared).

Paper bars: all slowdowns are small (SP is insensitive; the budget barely
binds it); misclassifying one instance as power-hungry EP steals power from
its co-scheduled twin, producing a small but visible slowdown there, which
feedback then reduces.  The claims checked are ``scorecard.CLAIMS["fig8"]``.
"""

import numpy as np

from repro.experiments import figures
from repro.experiments.scorecard import score


def mean(result, policy, job):
    return float(np.mean(result.slowdowns[policy][job]))


def test_fig8_overestimate_insensitive_pair(benchmark, report):
    result = benchmark.pedantic(
        lambda: figures.run("fig8", "bench"), rounds=1, iterations=1
    )
    card = score("fig8", result)
    report(
        figures.format_table("fig8", result) + "\n\n" + card.render(),
        agnostic=round(mean(result, "Performance Agnostic", "sp"), 4),
        aware=round(mean(result, "Performance Aware", "sp"), 4),
        cojob_under_misclassification=round(mean(result, "Over-estimate sp", "sp"), 4),
        cojob_with_feedback=round(
            mean(result, "Over-estimate sp, with feedback", "sp"), 4
        ),
    )
    assert card.all_passed, card.render()
