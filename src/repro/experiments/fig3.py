"""Fig. 3 + §5.1: power-performance characterization of the NPB job types.

"Execution time of each job type under varied power caps, relative to the
execution time at a 280 W CPU power cap per node.  Error bars show standard
deviation over 10 runs."  The same runs provide the precharacterized models:
"Most job types have training R² scores of at least 0.97.  The exceptions
are IS (0.92), MG (0.94), and SP (0.84)."

Characterization runs fix every node's cap directly (no control plane) and
measure the compute-phase runtime the emulator produces, exactly how a
cluster operator would profile job types offline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.geopm.signals import ControlNames
from repro.hwsim.cluster import EmulatedCluster
from repro.modeling.quadratic import QuadraticPowerModel
from repro.util.rng import ensure_rng
from repro.workloads.nas import NAS_TYPES, JobType, P_NODE_MAX, P_NODE_MIN

__all__ = [
    "CharacterizationResult",
    "measure_run",
    "characterize_job_types",
    "format_table",
    "PAPER_R2",
]

#: R² scores the paper reports for its precharacterized fits (§5.1).
PAPER_R2: dict[str, float] = {
    "bt": 0.97, "cg": 0.97, "ep": 0.97, "ft": 0.97, "lu": 0.97,
    "is": 0.92, "mg": 0.94, "sp": 0.84,
}


def measure_run(
    job_type: JobType,
    p_cap: float,
    *,
    seed: int | np.random.Generator | None = None,
    tick: float = 0.25,
    max_time: float = 7200.0,
) -> float:
    """One characterization run: compute-phase runtime at a fixed node cap."""
    cluster = EmulatedCluster(job_type.nodes, seed=seed)
    cluster.clock.tick = tick
    job = cluster.start_job("char", job_type)
    for node in job.nodes:
        node.pio.write_control(ControlNames.CPU_POWER_LIMIT_CONTROL, p_cap)
    while cluster.running and cluster.clock.now < max_time:
        cluster.clock.advance(tick)
        cluster.advance(tick)
    if cluster.running:
        raise RuntimeError(
            f"{job_type.name} did not finish at cap {p_cap} within {max_time}s"
        )
    return cluster.completed[0].runtime


@dataclass
class CharacterizationResult:
    """Everything Fig. 3 plots plus the fitted models used downstream."""

    caps: np.ndarray
    # type name -> (n_caps, n_runs) runtimes
    runtimes: dict[str, np.ndarray]
    models: dict[str, QuadraticPowerModel]
    r2: dict[str, float]

    def relative_times(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """(mean, std) of runtime relative to the max-cap mean, per cap."""
        runs = self.runtimes[name]
        ref = runs[-1].mean()  # caps are ascending; last is the 280 W column
        rel = runs / ref
        return rel.mean(axis=1), rel.std(axis=1)


def characterize_job_types(
    job_types: Mapping[str, JobType] | None = None,
    *,
    caps: Sequence[float] | None = None,
    runs_per_cap: int = 10,
    seed: int = 0,
    tick: float = 0.25,
) -> CharacterizationResult:
    """Profile each type over a cap sweep and fit its quadratic model: Fig.
    3's run, whose defaults are the paper's 10 runs per cap."""
    types = dict(job_types) if job_types is not None else dict(NAS_TYPES)
    cap_arr = np.asarray(
        caps if caps is not None else np.arange(P_NODE_MIN, P_NODE_MAX + 1e-9, 20.0),
        dtype=float,
    )
    if cap_arr.size < 3:
        raise ValueError("need at least 3 caps to fit a quadratic")
    if np.any(np.diff(cap_arr) <= 0):
        raise ValueError("caps must be strictly increasing")
    rng = ensure_rng(seed)
    runtimes: dict[str, np.ndarray] = {}
    models: dict[str, QuadraticPowerModel] = {}
    r2: dict[str, float] = {}
    for name, jt in sorted(types.items()):
        grid = np.empty((cap_arr.size, runs_per_cap))
        for i, cap in enumerate(cap_arr):
            for r in range(runs_per_cap):
                grid[i, r] = measure_run(jt, float(cap), seed=rng, tick=tick)
        runtimes[name] = grid
        samples_p = np.repeat(cap_arr, runs_per_cap)
        samples_t = (grid / jt.epochs).ravel()
        fit = QuadraticPowerModel.fit(samples_p, samples_t, P_NODE_MIN, P_NODE_MAX)
        models[name] = fit.model
        r2[name] = fit.r2
    return CharacterizationResult(caps=cap_arr, runtimes=runtimes, models=models, r2=r2)


def format_table(result: CharacterizationResult) -> str:
    """Paper-vs-measured table: sensitivity at min cap and fit R² per type."""
    lines = [
        f"{'type':<6}{'rel T @140W':>12}{'±std':>8}{'fit R²':>9}{'paper R²':>10}",
    ]
    for name in sorted(result.runtimes):
        mean, std = result.relative_times(name)
        lines.append(
            f"{name:<6}{mean[0]:>12.3f}{std[0]:>8.3f}"
            f"{result.r2[name]:>9.3f}{PAPER_R2[name]:>10.2f}"
        )
    return "\n".join(lines)
