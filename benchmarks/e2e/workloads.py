"""The five workloads: inputs from a seed, one run, and the output checks.

Every ``dr*`` workload is the public demand-response system of
``repro.experiments.fig9`` (six long job types, Poisson arrivals at 95 %
utilisation, a 4 s bounded-random-walk regulation target, committed band
scaled by ``num_nodes / 16``) run with ``AnorSystem.run(duration)`` on the
default stepping engine.  ``tabsim_fig11`` is ``run_fig11``, the paper's other
evaluation and a disjoint code path.  Each ``AnorConfig`` is built in one
function, so a config refactor (ROADMAP 3) has one place to look at per
workload — though it may not edit this file.
"""

from __future__ import annotations

import hashlib
import importlib
import tempfile
from dataclasses import astuple, dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

from calibrate import Calibrator
from layers import Tracer

OUT_DIR = Path(__file__).resolve().parent / "out"

#: Layers only ``dr16_hardened`` switches on; anywhere else a call into one of
#: them means an off-by-default feature is no longer free when off.
HARDENED_ONLY_LAYERS = ("durable", "core.reliable", "core.audit", "plan", "telemetry", "facility")

WARMUP_S = 300.0  # tracking error is scored after the cluster has filled
QUICK_DIVISOR = 8
QUICK_TRIALS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: Simulated seconds per run (per trial for ``tabsim_fig11``).
    duration: float
    #: Seconds one run took at the reference speed (calibrate.py) at the commit
    #: that added the benchmark; sizes the number of runs from ``--seconds``.
    nominal_s: float
    #: ``config(seed, checkpoint_dir) -> AnorConfig``; None for ``tabsim_fig11``.
    config: Callable[[int, str], Any] | None = None
    faults: Callable[[float, int], Any] | None = None
    trials: int = 0


def _dr16_tick_config(seed: int, checkpoint_dir: str):
    from repro.core.framework import AnorConfig

    return AnorConfig(num_nodes=16, seed=seed)


def _dr16_multirate_config(seed: int, checkpoint_dir: str):
    from repro.core.framework import AnorConfig

    return AnorConfig(
        num_nodes=16, seed=seed, agent_period=30.0, endpoint_period=30.0, manager_period=60.0
    )


def _dr16_hardened_config(seed: int, checkpoint_dir: str):
    from repro.core.framework import AnorConfig
    from repro.experiments.fig9 import DEFAULT_AVERAGE_POWER, DEFAULT_RESERVE

    return AnorConfig(
        num_nodes=16,
        seed=seed,
        telemetry_enabled=True,
        lease_ttl=20.0,
        reliable_messaging=True,
        audit_enabled=True,
        plan_enabled=True,
        shed_enabled=True,
        # The bottom of the committed band, so ordinary regulation swings are
        # not deficits; only the facility incidents below climb the ladder.
        shed_nominal_watts=DEFAULT_AVERAGE_POWER - DEFAULT_RESERVE,
        breaker_margin=0.2,
        checkpoint_dir=checkpoint_dir,
    )


def _dr16_hardened_faults(duration: float, num_nodes: int):
    from repro.faults.events import FeederLoss, ThermalDerate
    from repro.faults.schedule import FaultSchedule

    return FaultSchedule.standard_load(duration, num_nodes=num_nodes).extended(
        [
            FeederLoss(time=0.7 * duration, magnitude=0.40, duration=120.0),
            ThermalDerate(time=0.85 * duration, magnitude=0.15, duration=120.0),
        ]
    )


def _dr256_multirate_config(seed: int, checkpoint_dir: str):
    from repro.core.framework import AnorConfig

    return AnorConfig(
        num_nodes=256, seed=seed, agent_period=30.0, endpoint_period=30.0, manager_period=60.0
    )


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "dr16_tick",
            "Paper Fig. 9 deployment, 1 s control periods: the whole control plane "
            "runs every tick and the stride engine never engages.",
            duration=1800.0,
            nominal_s=2.1,
            config=_dr16_tick_config,
        ),
        Workload(
            "dr16_multirate",
            "Same scenario at 30/30/60 s periods, the rates the event calendar was "
            "built for: stride bookkeeping and hwsim physics dominate.",
            duration=10800.0,
            nominal_s=2.65,
            config=_dr16_multirate_config,
        ),
        Workload(
            "dr16_hardened",
            "dr16_tick with every off-by-default subsystem and the standard fault "
            "load plus two facility incidents: the only place the features run together.",
            duration=3600.0,
            nominal_s=9.1,
            config=_dr16_hardened_config,
            faults=_dr16_hardened_faults,
        ),
        Workload(
            "dr256_multirate",
            "Scale point: 256 nodes, ~150 concurrent jobs, a completion about every "
            "simulated second, so per-tick physics dominates and strides barely fire.",
            duration=1200.0,
            nominal_s=4.0,
            config=_dr256_multirate_config,
        ),
        Workload(
            "tabsim_fig11",
            "Paper Fig. 11 sweep on the 1000-node tabular simulator: 50 short "
            "simulations on a code path disjoint from every dr* workload.",
            duration=1200.0,
            nominal_s=4.4,
            trials=10,
        ),
    )
}


@dataclass
class RunOutput:
    """What one run of one workload produced, before it is made JSON."""

    wall_s: float  # at the reference speed, see calibrate.py
    wall_raw_s: float  # host seconds, calibration interruptions included
    interrupted_s: float  # host seconds of wall_raw_s spent calibrating
    sim_s: float
    trace_rows: int
    attempted: int
    failed: int
    fidelity: dict[str, float]
    sim_digest: str
    problems: list[str]
    faults_fired: int = 0
    tabsim_steps: int = 0


def _check_trace(trace: np.ndarray, expected_rows: int | None, problems: list[str]) -> None:
    if expected_rows is not None and trace.shape[0] != expected_rows:
        problems.append(f"trace has {trace.shape[0]} rows, expected {expected_rows}")
    if trace.shape[0] > 1 and not np.all(np.diff(trace[:, 0]) > 0):
        problems.append("trace times are not strictly increasing")


# ------------------------------------------------------------------ dr* runs


def build_dr(workload: Workload, seed: int, quick: bool, checkpoint_dir: str):
    """Inputs from the seed: schedule, regulation target, config, faults."""
    from repro.experiments.fig9 import (
        DEFAULT_AVERAGE_POWER,
        DEFAULT_RESERVE,
        build_demand_response_system,
    )

    duration = workload.duration / (QUICK_DIVISOR if quick else 1)
    config = workload.config(seed, checkpoint_dir)
    scale = config.num_nodes / 16
    system = build_demand_response_system(
        duration=duration,
        num_nodes=config.num_nodes,
        seed=seed,
        average_power=DEFAULT_AVERAGE_POWER * scale,
        reserve=DEFAULT_RESERVE * scale,
        config=config,
        fault_schedule=(
            workload.faults(duration, config.num_nodes) if workload.faults else None
        ),
    )
    return system, duration, DEFAULT_RESERVE * scale


def _timed(call: Callable[[], Any], calibrator: Calibrator) -> tuple[Any, dict[str, float]]:
    first_sample, spent_before = calibrator.mark()
    start = perf_counter()
    result = call()
    wall = perf_counter() - start
    interrupted = calibrator.spent - spent_before
    return result, {
        "wall_s": calibrator.scale(wall - interrupted, first_sample),
        "wall_raw_s": wall,
        "interrupted_s": interrupted,
    }


def run_dr(system, duration: float, reserve: float, calibrator: Calibrator) -> RunOutput:
    from repro.analysis.tracking import tracking_error_series

    result, walls = _timed(lambda: system.run(duration), calibrator)

    problems: list[str] = []
    trace = result.power_trace
    _check_trace(trace, round(duration / system.config.tick), problems)
    # Job conservation from public state.  Whatever is neither completed,
    # running nor waiting was dropped after max_requeues, or lost.
    submitted = len(system.schedule.requests)
    completed_ids = [t.job_id for t in result.completed]
    if len(set(completed_ids)) != len(completed_ids):
        problems.append("a job_id completed twice")
    accounted = len(completed_ids) + len(system.cluster.running) + result.unstarted_jobs
    if accounted > submitted:
        problems.append(f"{accounted} jobs accounted for, only {submitted} submitted")
    failed = max(submitted - accounted, 0)

    errors = tracking_error_series(trace, reserve, t_start=WARMUP_S, smooth_samples=4)
    t_min = {name: jt.total_time(jt.p_max) for name, jt in system.job_types.items()}
    qos = [q for values in result.qos_by_type(t_min).values() for q in values]
    ledger = sorted(astuple(t) for t in result.completed)
    return RunOutput(
        **walls,
        sim_s=result.duration,
        trace_rows=trace.shape[0],
        attempted=submitted,
        failed=failed,
        fidelity={
            "track_err_p90": float(np.percentile(errors, 90)) if errors.size else 0.0,
            "qos_p90": float(np.percentile(qos, 90)) if qos else 0.0,
            "jobs_completed": len(completed_ids),
        },
        sim_digest=hashlib.sha256(
            np.ascontiguousarray(trace).tobytes() + repr(ledger).encode()
        ).hexdigest(),
        problems=problems,
        faults_fired=len(result.fault_log),
    )


# ------------------------------------------------------------- tabsim_fig11


class _TrialCollector:
    """Reduces each trial as ``run_fig11`` makes it.

    ``run_fig11`` returns only per-band statistics; job counts, trace checks
    and the digest need the trials themselves.  Each trial is folded into
    running totals and released, as ``run_fig11`` itself does, so peak memory
    stays that of one trial.  Fifty calls, a few tens of microseconds each.
    """

    def __init__(self, duration: float) -> None:
        self.duration = duration
        self.trials = self.attempted = self.completed = self.rows = 0
        self.sim_s = 0.0
        self.digest = hashlib.sha256()
        self.problems: list[str] = []
        self._cls = importlib.import_module("repro.tabsim.simulator").TabularClusterSimulator
        self._original = self._cls.run

    def _fold(self, sim, trial) -> None:
        trace, table = trial.power_trace, trial.job_table
        _check_trace(trace, None, self.problems)
        if trace.shape[0] < round(self.duration / sim.config.dt):
            self.problems.append("a trial stopped before its duration")
        if table.count > len(sim.schedule.requests):
            self.problems.append("a trial's job table holds more jobs than were submitted")
        self.trials += 1
        self.attempted += len(sim.schedule.requests)
        self.completed += trial.completed_jobs
        self.rows += trace.shape[0]
        self.sim_s += trace.shape[0] * sim.config.dt
        self.digest.update(np.ascontiguousarray(trace).tobytes())
        for column in (table.type_idx, table.submit_time, table.start_time, table.end_time, table.state):
            self.digest.update(np.ascontiguousarray(column[: table.count]).tobytes())

    def __enter__(self) -> "_TrialCollector":
        original, fold = self._original, self._fold

        def run(sim, *args, **kwargs):
            trial = original(sim, *args, **kwargs)
            fold(sim, trial)
            return trial

        self._cls.run = run
        return self

    def __exit__(self, *exc) -> None:
        self._cls.run = self._original


def run_fig11(
    workload: Workload, seed: int, quick: bool, tracer: Tracer | None, calibrator: Calibrator
) -> RunOutput:
    fig11 = importlib.import_module("repro.experiments.fig11")
    duration = workload.duration / (QUICK_DIVISOR if quick else 1)
    trials = QUICK_TRIALS if quick else workload.trials
    warmup = min(WARMUP_S, duration / 2)
    with _TrialCollector(duration) as seen:
        if tracer is not None:
            tracer.install()
        try:
            # Looked up on the module at call time, so the tracer's root span
            # wraps it.
            result, walls = _timed(
                lambda: fig11.run_fig11(trials=trials, duration=duration, seed=seed, warmup=warmup),
                calibrator,
            )
        finally:
            if tracer is not None:
                tracer.uninstall()

    if seen.trials != len(result.bands) * trials:
        seen.problems.append(f"{seen.trials} trials ran, expected {len(result.bands) * trials}")
    return RunOutput(
        **walls,
        sim_s=seen.sim_s,
        trace_rows=seen.rows,
        attempted=seen.attempted,
        # The drain phase runs every submitted job to completion; one that is
        # still queued or running at the 4x-duration safety stop is lost work.
        failed=seen.attempted - seen.completed,
        fidelity={
            "track_err_p90": float(result.tracking90.mean(axis=1).max()),
            "qos_p90": float(max(v[0].mean() for v in result.qos90.values())),
            "jobs_completed": seen.completed,
        },
        sim_digest=seen.digest.hexdigest(),
        problems=seen.problems,
        tabsim_steps=seen.rows,
    )


# ---------------------------------------------------------------- one run


def setup(workload: Workload, seed: int, quick: bool, checkpoint_dir: str):
    """Everything before the timed call; what ``setup_s`` covers."""
    if workload.config is None:
        importlib.import_module("repro.experiments.fig11")
        return None
    return build_dr(workload, seed, quick, checkpoint_dir)


def run(
    workload: Workload, seed: int, quick: bool, built, tracer: Tracer | None, calibrator: Calibrator
) -> RunOutput:
    if built is None:
        return run_fig11(workload, seed, quick, tracer, calibrator)
    if tracer is not None:
        # After the build: only the run itself is attributed to layers.
        tracer.install()
    try:
        return run_dr(*built, calibrator)
    finally:
        if tracer is not None:
            tracer.uninstall()


def checkpoint_dir() -> tempfile.TemporaryDirectory:
    """Inside the benchmark's own directory, removed after the run."""
    OUT_DIR.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="checkpoint-")
