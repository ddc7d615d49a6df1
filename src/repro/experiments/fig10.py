"""Fig. 10: per-type slowdown under the 1-hour time-varying schedule (§6.3).

Four power-capping configurations over the same demand-response hour:

* **Uniform** — the same cap on every active node (performance-unaware);
* **Characterized** — even-slowdown with correct precharacterized models;
* **Misclassified** — BT (high sensitivity) classified as IS (low), no
  job-tier feedback;
* **Adjusted** — same misclassification, but online performance feedback
  lets the cluster tier recover.

Paper numbers to compare against: the characterized balancer reduces the
slowest job type from 11.6 % to 8.0 % slowdown; measured power stays under
24 % error at the 90th percentile in the worst case (misclassified without
feedback) and within 17 % otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.tracking import tracking_error_series
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.budget.uniform import UniformCapBudgeter
from repro.experiments.fig9 import DEFAULT_RESERVE, build_demand_response_system
from repro.workloads.nas import NAS_TYPES, long_running_mix

__all__ = ["Fig10Result", "run_fig10", "format_table", "PAPER_SLOWEST"]

#: §6.3: the slowest job type improves from 11.6 % (uniform) to 8.0 %
#: (characterized).
PAPER_SLOWEST = {"Uniform": 0.116, "Characterized": 0.080}

POLICIES = ("Uniform", "Characterized", "Misclassified", "Adjusted")


@dataclass
class Fig10Result:
    # policy -> type -> slowdown samples (one per completed job)
    slowdowns: dict[str, dict[str, list[float]]]
    # policy -> 90th-percentile tracking error
    tracking_90th: dict[str, float]
    reserve: float

    def mean_slowdown(self, policy: str) -> dict[str, float]:
        return {
            name: float(np.mean(vals))
            for name, vals in self.slowdowns[policy].items()
            if vals
        }

    def slowest_type(self, policy: str) -> tuple[str, float]:
        means = self.mean_slowdown(policy)
        name = max(means, key=means.get)
        return name, means[name]


def _make_system(policy: str, *, duration: float, seed: int, utilization: float):
    common = dict(duration=duration, seed=seed, utilization=utilization)
    if policy == "Uniform":
        return build_demand_response_system(
            budgeter=UniformCapBudgeter(), feedback=False, **common
        )
    if policy == "Characterized":
        return build_demand_response_system(
            budgeter=EvenSlowdownBudgeter(), feedback=False, **common
        )
    if policy == "Misclassified":
        return build_demand_response_system(
            budgeter=EvenSlowdownBudgeter(),
            misclassify_bt_as_is=True,
            feedback=False,
            **common,
        )
    if policy == "Adjusted":
        return build_demand_response_system(
            budgeter=EvenSlowdownBudgeter(),
            misclassify_bt_as_is=True,
            feedback=True,
            **common,
        )
    raise ValueError(f"unknown policy {policy!r}")


def run_fig10(
    *,
    duration: float = 3600.0,
    trials: int = 1,
    seed: int = 0,
    utilization: float = 0.95,
    warmup: float = 300.0,
) -> Fig10Result:
    """Run the four policies over the same schedule family."""
    slowdowns: dict[str, dict[str, list[float]]] = {
        p: {jt.name: [] for jt in long_running_mix()} for p in POLICIES
    }
    tracking: dict[str, list[float]] = {p: [] for p in POLICIES}
    for policy in POLICIES:
        for trial in range(trials):
            system = _make_system(
                policy, duration=duration, seed=seed + trial, utilization=utilization
            )
            result = system.run(duration)
            for totals in result.completed:
                ref = NAS_TYPES[totals.job_type].compute_time(
                    NAS_TYPES[totals.job_type].p_max
                )
                slowdowns[policy][totals.job_type].append(totals.runtime / ref - 1.0)
            errors = tracking_error_series(
                result.power_trace,
                DEFAULT_RESERVE,
                t_start=warmup,
                smooth_samples=4,
            )
            tracking[policy].append(float(np.percentile(errors, 90)))
    return Fig10Result(
        slowdowns=slowdowns,
        tracking_90th={p: float(np.mean(v)) for p, v in tracking.items()},
        reserve=DEFAULT_RESERVE,
    )


def format_table(result: Fig10Result) -> str:
    types = [jt.name for jt in long_running_mix()]
    header = f"{'policy':<15}" + "".join(f"{t:>9}" for t in types) + f"{'err90':>8}"
    lines = [header]
    for policy in POLICIES:
        means = result.mean_slowdown(policy)
        cells = "".join(
            f"{100 * means.get(t, float('nan')):>8.1f}%" for t in types
        )
        lines.append(
            f"{policy:<15}{cells}{100 * result.tracking_90th[policy]:>7.1f}%"
        )
    slow_u = result.slowest_type("Uniform")
    slow_c = result.slowest_type("Characterized")
    lines.append(
        f"slowest type: uniform {slow_u[0]}={100 * slow_u[1]:.1f}% "
        f"(paper 11.6%), characterized {slow_c[0]}={100 * slow_c[1]:.1f}% (paper 8.0%)"
    )
    return "\n".join(lines)
