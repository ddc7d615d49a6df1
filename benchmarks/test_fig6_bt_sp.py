"""Fig. 6: BT + SP under a shared 840 W budget on the emulated cluster.

Paper bars (slowdown vs no power cap): performance-agnostic hurts BT
(~11 %) while barely touching SP; the performance-aware balancer pulls the
two together (~5 %); misclassifying either job reopens the gap (~15 %); and
online feedback recovers much of the loss in both directions.  The claims
checked are ``scorecard.CLAIMS["fig6"]``.
"""

import numpy as np

from repro.experiments import fig6
from repro.experiments.scorecard import score


def mean(result, policy, job):
    return float(np.mean(result.slowdowns[policy][job]))


def test_fig6_pair_policies(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig6.run_fig6(trials=3, seed=0, tick=1.0), rounds=1, iterations=1
    )
    card = score("fig6", result)
    report(
        fig6.format_table(result) + "\n\n" + card.render(),
        agnostic_bt=round(mean(result, "Performance Agnostic", "bt"), 4),
        aware_bt=round(mean(result, "Performance Aware", "bt"), 4),
        under_estimate_bt=round(mean(result, "Under-estimate bt", "bt=is"), 4),
        under_estimate_bt_feedback=round(
            mean(result, "Under-estimate bt, with feedback", "bt=is"), 4
        ),
        over_estimate_bt=round(mean(result, "Over-estimate sp", "bt"), 4),
        over_estimate_bt_feedback=round(
            mean(result, "Over-estimate sp, with feedback", "bt"), 4
        ),
    )
    assert card.all_passed, card.render()
