"""Ablation: cluster-tier control period vs power-tracking accuracy.

The paper's targets move every 4 s while the agents sample every second
(§4.4.1, §7.2 discusses the resulting multi-rate asynchrony).  This sweep
re-budgets at 1/4/10-second periods over a shortened Fig. 9 scenario: a
manager slower than the target stream must miss steps, so tracking error
should grow with the period.
"""

import numpy as np

from repro.analysis.tracking import tracking_error_series
from repro.core.framework import AnorConfig
from repro.experiments.fig9 import DEFAULT_RESERVE, build_demand_response_system


def run_with_period(manager_period: float, *, duration=1200.0, seed=0) -> float:
    # The period goes in at construction: the manager's gate is built from it
    # there, so setting it on a live system's config changes nothing.
    system = build_demand_response_system(
        duration=duration,
        seed=seed,
        config=AnorConfig(num_nodes=16, seed=seed, manager_period=manager_period),
    )
    result = system.run(duration)
    errors = tracking_error_series(
        result.power_trace, DEFAULT_RESERVE, t_start=300.0, smooth_samples=4
    )
    return float(np.percentile(errors, 90))


def test_ablation_manager_period(benchmark, report):
    periods = (1.0, 4.0, 10.0)

    def sweep():
        return {p: run_with_period(p) for p in periods}

    err90 = benchmark.pedantic(sweep, rounds=1, iterations=1)

    # Slower budgeting tracks a 4 s target stream worse.
    assert err90[10.0] > err90[1.0]
    # The paper's operating point (1 s manager under 4 s targets) meets the
    # AQA constraint.
    assert err90[1.0] < 0.30

    rows = [f"{'manager period (s)':>19} {'tracking err90':>15}"]
    for p in periods:
        rows.append(f"{p:>19.0f} {100 * err90[p]:>14.1f}%")
    report(
        "\n".join(rows),
        **{f"err90_period_{int(p)}s": round(v, 4) for p, v in err90.items()},
    )
