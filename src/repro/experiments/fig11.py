"""Fig. 11: QoS degradation vs. node performance variation (§6.4).

1000-node tabular simulations: per-node performance coefficients drawn from
N(1, σ) with σ set so 99 % of performance lies within ±{0, 7.5, 15, 22.5,
30} %.  Ten trials per level, each with its own seed affecting coefficients
and job arrivals; 6 job types at 75 % utilization, scaled to 25× the node
counts of the 16-node experiments.  The figure reports the 90th percentile
of QoS degradation per type (target Q = 5), with mean and 90 % confidence
band over trials; power-tracking error must stay within the 30 %/90 %
constraint at every level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.aqa.regulation import BoundedRandomWalkSignal
from repro.tabsim.simulator import SimConfig, TabularClusterSimulator
from repro.tabsim.tables import SimJobType
from repro.workloads.generator import PoissonScheduleGenerator
from repro.workloads.nas import long_running_mix

__all__ = ["Fig11Result", "run_fig11", "format_table", "DEFAULT_BANDS"]

DEFAULT_BANDS = (0.0, 0.075, 0.15, 0.225, 0.30)

#: Demand-response bid used for all Fig. 11 runs, chosen (via the bidder in
#: examples/demand_response_bidding.py) to keep tracking within constraint
#: at 75 % utilization on 1000 nodes.
DEFAULT_AVERAGE_POWER = 150_000.0
DEFAULT_RESERVE = 15_000.0


@dataclass
class Fig11Result:
    bands: tuple[float, ...]
    # type -> (n_bands, n_trials) of 90th-percentile QoS degradation
    qos90: dict[str, np.ndarray]
    # (n_bands, n_trials) 90th-percentile tracking error
    tracking90: np.ndarray
    qos_limit: float

    def mean_and_band(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(mean, 90 % CI half-width) over trials per variation level."""
        data = self.qos90[name]
        mean = data.mean(axis=1)
        n = data.shape[1]
        if n < 2:
            return mean, np.zeros_like(mean)
        # Imported here: scipy.stats costs 0.6 s and 60 MiB that no
        # simulation needs.
        from scipy import stats as sps

        t_crit = float(sps.t.ppf(0.95, df=n - 1))
        half = t_crit * data.std(axis=1, ddof=1) / np.sqrt(n)
        return mean, half

    def types_exceeding_limit(self) -> dict[str, float]:
        """First variation band at which each type's mean 90th-pct QoS
        crosses the limit (NaN if it never does)."""
        out: dict[str, float] = {}
        for name in self.qos90:
            mean, _ = self.mean_and_band(name)
            over = np.flatnonzero(mean > self.qos_limit)
            out[name] = float(self.bands[over[0]]) if over.size else float("nan")
        return out


def run_fig11(
    *,
    bands: tuple[float, ...] = DEFAULT_BANDS,
    trials: int = 10,
    num_nodes: int = 1000,
    node_scale: int = 25,
    utilization: float = 0.75,
    duration: float = 3600.0,
    qos_limit: float = 5.0,
    average_power: float = DEFAULT_AVERAGE_POWER,
    reserve: float = DEFAULT_RESERVE,
    qos_aware_capping: bool = False,
    seed: int = 0,
    warmup: float = 300.0,
) -> Fig11Result:
    """Run the variation sweep on the tabular simulator."""
    base_types = long_running_mix()
    sim_types = [
        SimJobType.from_job_type(jt, node_scale=node_scale, qos_limit=qos_limit)
        for jt in base_types
    ]
    scaled = [jt.scaled_nodes(node_scale) for jt in base_types]
    qos90 = {t.name: np.empty((len(bands), trials)) for t in sim_types}
    tracking90 = np.empty((len(bands), trials))
    for bi, band in enumerate(bands):
        for trial in range(trials):
            # "Each simulation uses a different random seed that impacts
            # performance coefficients and job arrival times" (§6.4).
            trial_seed = seed + 7919 * bi + trial
            generator = PoissonScheduleGenerator(
                scaled, utilization=utilization, total_nodes=num_nodes,
                seed=trial_seed,
            )
            schedule = generator.generate(duration)
            signal = BoundedRandomWalkSignal(
                duration * 4, step=4.0, seed=trial_seed + 1
            )
            config = SimConfig(
                num_nodes=num_nodes,
                average_power=average_power,
                reserve=reserve,
                variation_band=band,
                qos_aware_capping=qos_aware_capping,
                seed=trial_seed + 2,
            )
            sim = TabularClusterSimulator(sim_types, schedule, signal, config)
            result = sim.run(duration, drain=True)
            per_type = result.qos_percentile_by_type(90.0)
            for name, value in per_type.items():
                qos90[name][bi, trial] = value
            errors = result.tracking_errors(t_start=warmup, t_end=duration)
            tracking90[bi, trial] = float(np.percentile(errors, 90))
    return Fig11Result(
        bands=tuple(bands), qos90=qos90, tracking90=tracking90, qos_limit=qos_limit
    )


def format_table(result: Fig11Result) -> str:
    names = sorted(result.qos90)
    header = f"{'band':>7}" + "".join(f"{n:>8}" for n in names) + f"{'err90':>8}"
    lines = [header]
    for bi, band in enumerate(result.bands):
        cells = "".join(
            f"{result.qos90[n][bi].mean():>8.2f}" for n in names
        )
        lines.append(
            f"±{100 * band:4.1f}%{cells}{100 * result.tracking90[bi].mean():>7.1f}%"
        )
    lines.append(f"QoS limit: {result.qos_limit} (dashed line in the paper's figure)")
    return "\n".join(lines)
