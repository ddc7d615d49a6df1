"""Fig. 11: QoS degradation vs node performance variation (1000-node tabsim).

Paper series: 90th-percentile QoS degradation per job type at variation
bands 0…±30 % (99 % coverage), 10 trials each, 6 types at 75 % utilization,
QoS target 5; power tracking stays within the 30 %/90 % constraint at every
level (§6.4).  The claims checked are ``scorecard.CLAIMS["fig11"]``.
"""

import numpy as np

from repro.experiments import fig11
from repro.experiments.scorecard import score


def test_fig11_variation_sweep(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig11.run_fig11(
            bands=(0.0, 0.075, 0.15, 0.225, 0.30),
            trials=4,  # paper uses 10; 4 keeps the bench quick
            num_nodes=1000,
            node_scale=25,
            duration=2700.0,
            seed=0,
        ),
        rounds=1,
        iterations=1,
    )
    card = score("fig11", result)
    band0, band30 = (
        float(np.mean([result.qos90[n][band].mean() for n in result.qos90]))
        for band in (0, -1)
    )
    report(
        fig11.format_table(result) + "\n\n" + card.render(),
        qos_mean_band0=round(band0, 3),
        qos_mean_band30=round(band30, 3),
        tracking_90th_worst=round(float(result.tracking90.mean(axis=1).max()), 4),
    )
    assert card.all_passed, card.render()
