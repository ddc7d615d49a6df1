"""Fig. 7: two BT instances, one possibly misclassified as IS (840 W shared).

Paper bars: agnostic ≈ aware when both jobs share one power-performance
profile (both policies make the same decision); misclassifying one instance
slows it (~15–20 %); feedback recovers much of the loss.  The claims
checked are ``scorecard.CLAIMS["fig7"]``.
"""

import numpy as np

from repro.experiments import fig6
from repro.experiments.scorecard import score


def mean(result, policy, job):
    return float(np.mean(result.slowdowns[policy][job]))


def test_fig7_same_type_misclassification(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig6.run_fig7(trials=3, seed=1, tick=1.0), rounds=1, iterations=1
    )
    card = score("fig7", result)
    report(
        fig6.format_table(result) + "\n\n" + card.render(),
        agnostic=round(mean(result, "Performance Agnostic", "bt"), 4),
        aware=round(mean(result, "Performance Aware", "bt"), 4),
        misclassified=round(mean(result, "Under-estimate bt", "bt=is"), 4),
        with_feedback=round(mean(result, "Under-estimate bt, with feedback", "bt=is"), 4),
    )
    assert card.all_passed, card.render()
