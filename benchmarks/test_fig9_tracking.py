"""Fig. 9: one hour of time-varying power-target tracking on 16 nodes.

Paper series: target vs measured cluster power, target updated every 4 s in
the 2.3–4.5 kW committed band; tracking error stays within the AQA
constraint (≤30 % of reserve for ≥90 % of the time; the paper reports ≤17 %
here).  The claims checked are ``scorecard.CLAIMS["fig9"]``.
"""

import numpy as np

from repro.experiments import fig9
from repro.experiments.scorecard import score


def test_fig9_demand_response_hour(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig9.run_fig9(duration=2400.0, seed=0, warmup=300.0),
        rounds=1,
        iterations=1,
    )
    card = score("fig9", result)
    report(
        fig9.format_table(result) + "\n\n" + card.render(),
        err90=round(result.error_at_90th(), 4),
        frac_within_30pct=round(float(np.mean(result.errors() <= 0.30)), 4),
        jobs_completed=len(result.result.completed),
    )
    assert card.all_passed, card.render()
