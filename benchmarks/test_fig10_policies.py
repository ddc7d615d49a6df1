"""Fig. 10: per-type slowdown under the 1-hour time-varying schedule.

Paper bars: under uniform capping, the power-sensitive types (BT, LU, FT)
slow down most; the characterized balancer improves the slowest type (paper:
11.6 % → 8.0 %) at the cost of lightly capping insensitive types more; the
BT→IS misclassification inflates BT's slowdown; and the adjusted
(feedback) policy recovers much of it.  Tracking error must stay under 30 %
at the 90th percentile (paper: ≤24 % worst case).  The claims checked are
``scorecard.CLAIMS["fig10"]``.
"""

from repro.experiments import fig10
from repro.experiments.scorecard import score


def test_fig10_policy_matrix(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig10.run_fig10(duration=1800.0, trials=1, seed=0, warmup=300.0),
        rounds=1,
        iterations=1,
    )
    card = score("fig10", result)
    report(
        fig10.format_table(result) + "\n\n" + card.render(),
        worst_uniform=round(result.slowest_type("Uniform")[1], 4),
        worst_characterized=round(result.slowest_type("Characterized")[1], 4),
        bt_misclassified=round(result.mean_slowdown("Misclassified")["bt"], 4),
        bt_adjusted=round(result.mean_slowdown("Adjusted")["bt"], 4),
        tracking_90th_worst=round(max(result.tracking_90th.values()), 4),
    )
    assert card.all_passed, card.render()
