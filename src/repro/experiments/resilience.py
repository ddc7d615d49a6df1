"""Resilience drills: seven scenarios as data, one kernel that runs them.

The paper evaluates demand-response tracking on a healthy cluster; a
deployable framework must keep tracking through the faults real clusters
throw at it.  Each *drill* scores one safety layer by running the same
seeded workload through two or three **arms** that differ only in the
faults they take or the layer being switched on, and comparing them.

A drill is a :class:`Scenario` value: a workload, a target, common
:class:`~repro.core.framework.AnorConfig` overrides, named arms, default and
``--quick`` parameters and a ``metrics(arms, params) -> dict`` function;
its claims are its rows of ``scorecard.CLAIMS``, predicates over that dict.
:func:`run_drill` builds every arm and drains it with ``AnorSystem.run``,
:func:`format_drill` prints any result's parameters and metrics and
``scorecard.score(name, res.metrics)`` checks its claims.  Every
measurement a metric takes of a run (tracking error, re-convergence,
overshoot, lost jobs, the round monitor every arm carries) is
:mod:`repro.invariants`'; a drill only picks the runs and the bounds.

Adding a drill means adding one ``Scenario`` to :data:`SCENARIOS` and its
rows to ``CLAIMS``: the CLI (``anor resilience --drill NAME``) and the golden
test in ``tests/test_drills.py`` take their names from it, and CI's
``drills`` job is a matrix over the same names.
"""

from __future__ import annotations

import math
import tempfile
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from repro.aqa.regulation import BoundedRandomWalkSignal
from repro.core.cluster_manager import DEAD_JOB_TIMEOUT
from repro.core.framework import AnorConfig, AnorResult, AnorSystem
from repro.core.targets import (
    ConstantTarget,
    PowerTargetSource,
    RegulationTarget,
    SteppedTarget,
    load_target_file,
    save_target_file,
)
from repro.experiments.fig9 import (
    DEFAULT_AVERAGE_POWER,
    DEFAULT_RESERVE,
    build_demand_response_system,
)
from repro.facility.shed import RAMP_WATTS_PER_ROUND
from repro.faults.events import (
    ByzantineModel,
    CorruptStatus,
    DemandResponseEmergency,
    EndpointCrash,
    FeederLoss,
    HeadNodeCrash,
    LinkDegradation,
    MeterDrift,
    MeterOutage,
    NetworkPartition,
    NodeCrash,
    PartitionEnd,
    PartitionStart,
    StuckActuator,
    ThermalDerate,
)
from repro.faults.schedule import FaultSchedule
from repro.invariants import (
    CALM_WINDOW,
    RAMP_SLACK,
    RoundMonitor,
    calm_overshoot,
    collateral_quarantines,
    convergence_time,
    double_admitted,
    ghost_records,
    longest_over_limit,
    lost_jobs,
    overshoot_stats,
    quarantines,
    rounds_over_ceiling,
    tracking_error_p90,
)
from repro.plan.forecast import ERROR_WINDOW
from repro.workloads.nas import P_NODE_MIN

__all__ = [
    "Arm",
    "ArmRun",
    "DrillRun",
    "Scenario",
    "SCENARIOS",
    "run_drill",
    "format_drill",
]


# ------------------------------------------------------------------ kernel


@dataclass(frozen=True)
class Arm:
    """One run of a scenario.

    ``config`` overrides the scenario's common ``AnorConfig`` keywords for
    this arm only; ``faults`` builds the arm's fault schedule from the
    drill parameters (``None``: the arm runs fault-free).
    """

    config: Mapping = field(default_factory=dict)
    faults: Callable[[dict], FaultSchedule] | None = None


@dataclass
class ArmRun:
    """What one arm left behind.

    ``monitor`` is the arm's round monitor: it checked every round invariant
    and ``rounds`` is its table, one row per manager round that budgeted a
    job: (time, budget ceiling = max(target + correction, floor), planned
    draw = idle + reserved + allocated).  ``system`` is the live system after
    the drain, so a metric reads ``system.manager.auditor.transitions`` or
    ``system.telemetry.incident_counts`` where it needs them instead of
    having them copied out.
    """

    result: AnorResult
    system: AnorSystem
    monitor: RoundMonitor

    @property
    def rounds(self) -> np.ndarray:
        return self.monitor.table()


@dataclass(frozen=True)
class Scenario:
    """A drill, as data.  See the module docstring for the parts."""

    doc: str
    workload: str  # key of _UTILIZATION
    params: Mapping  # defaults, including ``seed`` and ``duration``
    arms: Mapping[str, Arm] | Callable[[dict], Mapping[str, Arm]]
    metrics: Callable[[dict[str, ArmRun], dict], dict]
    quick: Mapping = field(default_factory=dict)  # overrides applied by ``--quick``
    config: Callable[[dict], dict] = lambda p: {}
    # None: the Fig. 9 regulation target the system builder makes itself.
    target: Callable[[dict], PowerTargetSource | None] = lambda p: None
    # Integral-trim gain forced onto every arm's manager (None: leave it).
    correction_gain: float | None = None
    # Keep running for DEAD_JOB_TIMEOUT + 10 s after the drain: goodbyes are
    # still in flight then, and a silently-dead record needs the timeout to
    # pass before it is evicted, so ghosts can only be counted afterwards.
    settle: bool = False
    # Applied to each arm as soon as it drains; ``metrics`` then sees what it
    # returned instead of the ``ArmRun``.  For a scenario with many arms, so
    # that their live systems are not all kept.
    reduce: Callable[[ArmRun, dict], object] | None = None


@dataclass
class DrillRun:
    name: str
    params: dict
    arms: dict  # arm name -> ArmRun (or what the scenario's ``reduce`` made of it)
    metrics: dict


#: The paper's emulated cluster.
_NODES = 16

#: Node utilization of the two workloads, both the six long-running NAS types
#: of Figs. 9–10.  ``static`` leaves more headroom and is paired with a
#: static (or once-stepped) target, which makes a golden-vs-faulted
#: comparison exact: every divergence between two arms is attributable to
#: the fault, not to target motion racing the recovery.
_UTILIZATION = {"static": 0.9, "fig9": 0.95}

#: Safety stop: an arm that has not drained this long after ``duration``
#: is cut off (its unstarted jobs then fail the drain claims).
_DRAIN_LIMIT = 7200.0


def run_drill(
    name: str, *, quick: bool = False, seed: int | None = None, **params
) -> DrillRun:
    """Run every arm of scenario ``name`` and compute its metrics.

    ``params`` override the scenario's defaults (after the ``--quick``
    overrides, when asked for); ``seed=None`` keeps the scenario's own
    calibrated default seed.
    """
    scenario = SCENARIOS[name]
    unknown = sorted(set(params) - set(scenario.params))
    if unknown:
        raise TypeError(f"drill {name!r} has no parameter(s) {unknown}")
    p = {**scenario.params, **(scenario.quick if quick else {}), **params}
    if seed is not None:
        p["seed"] = seed
    # Built first, so that a scenario checks its parameters before any run.
    arms = scenario.arms(p) if callable(scenario.arms) else scenario.arms
    target = scenario.target(p)
    common = {
        "num_nodes": _NODES,
        "seed": p["seed"],
        # Incidents and decision counters feed the reports; bit-identity
        # with telemetry off is pinned by tests/test_telemetry_noop.py.
        "telemetry_enabled": True,
        **scenario.config(p),
    }
    runs: dict = {}
    with ExitStack() as stack:
        for arm_name, arm in arms.items():
            cfg = {**common, **arm.config}
            if "checkpoint_dir" in cfg:
                # A durable scenario: every arm checkpoints (so the cost of
                # persistence is on both sides of the comparison), each into
                # its own subdirectory — of a temporary directory that lives
                # only as long as the drill when the caller named none.
                base = cfg["checkpoint_dir"] or stack.enter_context(
                    tempfile.TemporaryDirectory(prefix=f"anor-{name}-")
                )
                cfg["checkpoint_dir"] = str(Path(base) / arm_name)
            config = AnorConfig(**cfg)
            monitor = RoundMonitor(config)
            system = build_demand_response_system(
                duration=p["duration"],
                utilization=_UTILIZATION[scenario.workload],
                num_nodes=_NODES,
                seed=cfg["seed"],
                target_source=target,
                config=config,
                fault_schedule=arm.faults(p) if arm.faults is not None else None,
                monitors=[monitor],
            )
            if scenario.correction_gain is not None:
                system.manager.correction_gain = scenario.correction_gain
            result = system.run(until_idle=True, max_time=p["duration"] + _DRAIN_LIMIT)
            if scenario.settle:
                system.run(int(DEAD_JOB_TIMEOUT) + 10.0)
            run = ArmRun(result, system, monitor)
            runs[arm_name] = scenario.reduce(run, p) if scenario.reduce else run
        metrics = scenario.metrics(runs, p)
    return DrillRun(name=name, params=p, arms=runs, metrics=metrics)


def format_drill(res: DrillRun) -> str:
    """A drill's report: its ``params``, then its ``metrics`` in dict order.

    A scalar is one ``key : value`` line; a non-empty list or dict is its key
    and then one indented line per item.  The metrics dict is what the claims
    read and the golden files pin, so the report shows every scored value and
    restates no bound.
    """
    lines: list[str] = []
    for title, values in (("params", res.params), ("metrics", res.metrics)):
        lines.append(f"{title}:")
        width = max(map(len, values), default=0)
        for key, value in values.items():
            if isinstance(value, dict) and value:
                inner = max(map(len, value))
                lines.append(f"  {key}:")
                lines += (f"    {k:<{inner}} : {_text(v)}" for k, v in value.items())
            elif isinstance(value, (list, tuple)) and value:
                lines.append(f"  {key}:")
                lines += (f"    {_text(item)}" for item in value)
            else:
                lines.append(f"  {key:<{width}} : {_text(value)}")
    return "\n".join(lines)


def _text(value) -> str:
    """One value on one line, a float to six significant digits."""
    if isinstance(value, float):
        return f"{value:.6g}"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{k}: {_text(v)}" for k, v in value.items()) + "}"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(map(_text, value)) + "]"
    return str(value)


def _ids(result: AnorResult) -> set[str]:
    return {t.job_id for t in result.completed}


def _error90(result: AnorResult, p: dict) -> float:
    """Tracking error over the drill's scheduled window, past its warmup."""
    return tracking_error_p90(
        result.power_trace, DEFAULT_RESERVE, warmup=p["warmup"], until=p["duration"]
    )


# ------------------------------------------------------------------ faults


def _decision_summary(system: AnorSystem) -> dict[str, float]:
    """Control-plane decision counters from the run's metrics registry.

    Purely observational — the counters are maintained by the telemetry
    subsystem and survive head-node restarts (the registry outlives any one
    manager instance).
    """
    reg = system.telemetry.registry
    names = {
        "budget rounds": "anor_budget_rounds_total",
        "caps sent": "anor_caps_sent_total",
        # Distinct fits: a status repeating the held fit is a heartbeat.
        "model fits accepted": "anor_models_accepted_total",
        "models rejected": "anor_models_rejected_total",
        "statuses rejected": "anor_statuses_rejected_total",
        "jobs evicted": "anor_jobs_evicted_total",
        "meter faults": "anor_meter_faults_total",
    }
    out = {
        label: value
        for label, metric in names.items()
        if (value := reg.get_value(metric)) is not None
    }
    # Labelled by reason; sum the family.
    out["link msgs dropped"] = sum(
        inst.value
        for name, _, _, rows in reg.families()
        if name == "anor_link_messages_dropped_total"
        for _, inst in rows
    )
    return out


def _faults_metrics(arms: dict[str, ArmRun], p: dict) -> dict:
    healthy, faulted = arms["healthy"], arms["faulted"]
    base, err = _error90(healthy.result, p), _error90(faulted.result, p)
    done = _ids(faulted.result)
    requeued = list(faulted.result.requeued)
    return {
        "healthy_error90": base,
        "faulted_error90": err,
        "degradation_ratio": err / base if base > 0 else math.inf,
        "completed_healthy": len(healthy.result.completed),
        "completed_faulted": len(faulted.result.completed),
        "unstarted_faulted": faulted.result.unstarted_jobs,
        "requeued": requeued,
        "requeued_completed": all(job_id in done for job_id in requeued),
        "ghost_jobs": ghost_records(faulted.system),
        "injector_quiescent": faulted.system.faults.quiescent,
        "fault_log": list(faulted.result.fault_log),
        "incident_counts": dict(faulted.system.telemetry.incident_counts),
        "decision_counts": _decision_summary(faulted.system),
    }


_FAULTS = Scenario(
    doc="""The Fig. 9 workload under the standard fault load.

    The *same* Fig. 9 workload (same seed, same arrival schedule, same target
    signal) runs twice — once healthy, once under
    :meth:`~repro.faults.FaultSchedule.standard_load` (one node crash, one
    endpoint crash, 5 % link loss across the run, one corrupt status, one
    60 s meter outage) — and the arms are compared on tracking error (90th
    percentile, post-warmup: faults must cost at most a bounded factor, not
    blow up control), completion (every submitted job drains, including the
    crash-requeued one) and hygiene (zero ghost ``JobRecord`` entries once
    the cluster drains, every fault window closed).
    """,
    workload="fig9",
    params={"seed": 0, "duration": 3600.0, "warmup": 300.0},
    quick={"duration": 600.0, "warmup": 120.0},
    arms={
        "healthy": Arm(),
        "faulted": Arm(faults=lambda p: FaultSchedule.standard_load(p["duration"])),
    },
    settle=True,
    metrics=_faults_metrics,
)


# ---------------------------------------------------------------- headnode


def _headnode_metrics(arms: dict[str, ArmRun], p: dict) -> dict:
    golden, recovered = arms["golden"], arms["recovered"]
    system = recovered.system
    return {
        # Live jobs reconciled against checkpointed state on re-HELLO.
        "recovery_merges": system.manager.recovery_merges if system.manager else 0,
        "checkpoints_written": (
            system.durable.checkpoints_written if system.durable else 0
        ),
        "rounds_over_ceiling": len(rounds_over_ceiling(recovered.rounds)),
        "completed_golden": len(golden.result.completed),
        "completed_recovered": len(recovered.result.completed),
        "lost_jobs": lost_jobs(golden.result, recovered.result),
        "double_admitted": double_admitted(recovered.result),
        "orphaned": list(recovered.result.orphaned),
        "convergence_time": convergence_time(
            golden.result,
            recovered.result,
            after=p["crash_time"] + p["down_for"],
            tol_watts=0.05 * p["target_power"],
        ),
        "recovery_log": list(recovered.result.recovery_log),
        # Crash, journal tail drops, cold restarts, restart cancellations ...
        "incident_counts": dict(system.telemetry.incident_counts),
    }


_HEADNODE = Scenario(
    doc="""Crash the head node mid-run; score the recovery against a golden run.

    The head node dies (taking the queue, budget accounting and every
    validated model with it) and a supervised restart recovers from the
    checkpoint + journal.  Both arms share the seed, schedule and static
    target; only the crash differs.  The golden arm checkpoints too, so any
    overhead of persistence is present on both sides of the comparison.
    ``checkpoint_dir=None`` keeps the checkpoints in a temporary directory
    that is removed when the drill returns.
    """,
    workload="static",
    params={
        "seed": 1,
        "duration": 1800.0,
        "target_power": _NODES * 170.0,
        "crash_time": 600.0,
        "down_for": 90.0,
        "checkpoint_dir": None,
        "checkpoint_period": 30.0,
    },
    quick={"duration": 600.0, "crash_time": 200.0, "down_for": 45.0},
    target=lambda p: ConstantTarget(p["target_power"]),
    config=lambda p: {
        "checkpoint_dir": p["checkpoint_dir"],
        "checkpoint_period": p["checkpoint_period"],
    },
    arms={
        "golden": Arm(),
        "recovered": Arm(
            faults=lambda p: FaultSchedule(
                [HeadNodeCrash(time=p["crash_time"], down_for=p["down_for"])]
            )
        ),
    },
    metrics=_headnode_metrics,
)


# --------------------------------------------------------------- partition


def _partition_target(p: dict) -> SteppedTarget:
    step_time = p["partition_time"] + p["step_into"]
    heal_time = p["partition_time"] + p["partition_duration"]
    if not p["partition_time"] < step_time < heal_time:
        raise ValueError(
            f"target step at t={step_time} must fall inside the partition "
            f"window [{p['partition_time']}, {heal_time}]"
        )
    return SteppedTarget([0.0, step_time], [p["high_power"], p["low_power"]])


def _partition_metrics(arms: dict[str, ArmRun], p: dict) -> dict:
    golden, cut = arms["golden"], arms["partitioned"]
    incidents = dict(cut.system.telemetry.incident_counts)
    events = cut.result.partition_events
    over = dict(
        # The enforceable cluster floor: every node at p_min.
        floor=_NODES * P_NODE_MIN, tol=p["tol"], after=p["partition_time"]
    )
    return {
        "overshoot_seconds": longest_over_limit(cut.result.power_trace, **over),
        "golden_overshoot_seconds": longest_over_limit(
            golden.result.power_trace, **over
        ),
        # The fail-safe guarantee: max tolerated over-limit stretch.
        "overshoot_bound": p["lease_ttl"] + p["lease_ramp"] + p["slack"],
        # Lease expiries observed (degraded-autonomy incidents).
        "degraded_endpoints": incidents.get("degraded-autonomy-start", 0),
        "partitions_detected": sum(isinstance(f, PartitionStart) for f in events),
        "partitions_healed": sum(isinstance(f, PartitionEnd) for f in events),
        "completed_golden": len(golden.result.completed),
        "completed_partitioned": len(cut.result.completed),
        "lost_jobs": lost_jobs(golden.result, cut.result),
        "injector_quiescent": cut.system.faults.quiescent,
        "convergence_time": convergence_time(
            golden.result,
            cut.result,
            after=p["partition_time"] + p["partition_duration"],
            tol_watts=p["tol"] * p["low_power"],
        ),
        "incident_counts": incidents,
    }


_PARTITION = Scenario(
    doc="""Partition the head from every endpoint mid-run; score the fail-safe.

    Both arms share the seed, schedule, stepped target and lease
    configuration; only the :class:`~repro.faults.NetworkPartition` differs.
    The target steps from ``high_power`` *down* to ``low_power`` at
    ``partition_time + step_into`` — inside the partition window, the
    dangerous direction: every endpoint holds a valid lease and a cap sized
    for the old, higher target and the head cannot deliver the lower one.
    Leases then expire, caps decay to the floor, the partition heals, and
    tracking must re-converge to the golden run.  The headline claim is the
    dead-man bound: the cluster may sit above the enforceable limit only for
    a stretch bounded by ``lease_ttl + lease_ramp`` plus ``slack`` (the
    control-period + epoch granularity allowance).
    """,
    workload="static",
    params={
        "seed": 7,
        "duration": 900.0,
        "high_power": _NODES * 220.0,
        "low_power": _NODES * 175.0,
        "partition_time": 300.0,
        "partition_duration": 240.0,
        "step_into": 10.0,
        "lease_ttl": 30.0,
        "lease_ramp": 60.0,
        "slack": 30.0,
        "tol": 0.10,
        "breaker_margin": None,
    },
    quick={"duration": 600.0, "partition_time": 200.0, "partition_duration": 150.0},
    target=_partition_target,
    config=lambda p: {
        "lease_ttl": p["lease_ttl"],
        "lease_ramp_seconds": p["lease_ramp"],
        "reliable_messaging": True,
        "breaker_margin": p["breaker_margin"],
    },
    arms={
        "golden": Arm(),
        "partitioned": Arm(
            faults=lambda p: FaultSchedule(
                [
                    NetworkPartition(
                        time=p["partition_time"], duration=p["partition_duration"]
                    )
                ]
            )
        ),
    },
    metrics=_partition_metrics,
)


# --------------------------------------------------------------- byzantine

#: The three rogue-endpoint fault kinds (as :attr:`FaultInjector.victims`
#: names them).
_ROGUE_KINDS = ("stuck-actuator", "byzantine-model", "meter-drift")

_BYZ_SETTLE = 45.0  # s after the last quarantine before power must be back
_BYZ_REHAB_BOUND = 150.0  # s from actuator heal to trusted again


def _byzantine_metrics(arms: dict[str, ArmRun], p: dict) -> dict:
    on, off = arms["attacked_on"], arms["attacked_off"]
    victims = {
        job_id: fired
        for job_id, fired in on.system.faults.victims.items()
        if fired[0] in _ROGUE_KINDS
    }
    quarantined = quarantines(on.system)
    transitions = on.system.manager.auditor.transitions
    # The one rogue fault that heals mid-run (the second stuck actuator).
    healed_victim, heal_time = None, None
    for job_id, (_, _, heal) in victims.items():
        if heal is not None:
            healed_victim, heal_time = job_id, heal

    def segments(result: AnorResult) -> tuple[float, float, float, float]:
        """(detect kJ, detect mean W, settled kJ, settled mean W), split
        ``_BYZ_SETTLE`` seconds after the audit-on run's last quarantine."""
        trace = result.power_trace
        last = max(quarantined.values()) if quarantined else p["attack_time"]
        split = last + _BYZ_SETTLE
        end = float(trace[-1, 0]) if len(trace) else split
        e0, m0 = overshoot_stats(trace, p["attack_time"], split)
        e1, m1 = overshoot_stats(trace, split, end)
        return e0 / 1000.0, m0, e1 / 1000.0, m1

    def still_held(job_id: str) -> bool:
        # Checked from the transition log, not drain-time state: the auditor
        # forgets a job once it completes, and a wedged-open victim runs at
        # full speed, so it usually finishes long before the run drains.
        mine = [t for t in transitions if t.job_id == job_id]
        return bool(mine) and mine[-1].new == "quarantined"

    seg_on, seg_off = segments(on.result), segments(off.result)
    return {
        "target_power": p["target_power"],
        "victims": {j: [kind, fired] for j, (kind, fired, _) in victims.items()},
        "healed_victim": healed_victim,
        "heal_time": heal_time,
        "false_quarantines_clean": len(quarantines(arms["clean"].system)),
        "missed_victims": sorted(set(victims) - set(quarantined)),
        "collateral_quarantines": collateral_quarantines(on.system),
        # job_id -> seconds from fault fire to first quarantine.
        "detection_latencies": {
            job_id: quarantined[job_id] - fired
            for job_id, (_, fired, _) in victims.items()
            if job_id in quarantined
        },
        "on_total_energy": seg_on[0] + seg_on[2],
        "off_total_energy": seg_off[0] + seg_off[2],
        "off_detect_mean": seg_off[1],
        "on_settled_mean": seg_on[3],
        # The healed actuator's job re-earned trust within the bound.
        "rehabilitated": any(
            t.job_id == healed_victim
            and t.new == "trusted"
            and heal_time <= t.time <= heal_time + _BYZ_REHAB_BOUND
            for t in transitions
        ),
        # Victims whose fault never heals must never leave quarantine.
        "unhealed_still_quarantined": all(
            still_held(j) for j in victims if j != healed_victim
        ),
        "transitions": [
            f"t={t.time:7.1f} {t.job_id}: {t.old} -> {t.new} ({t.reason})"
            for t in transitions
        ],
    }


def _byzantine_attack(p: dict) -> FaultSchedule:
    at = p["attack_time"]
    return FaultSchedule(
        [
            StuckActuator(time=at),
            StuckActuator(time=at + 5.0, duration=p["stuck_heal_after"]),
            ByzantineModel(time=at + 60.0, mode="flat"),
        ]
    )


_BYZANTINE = Scenario(
    doc="""Score the cap-compliance auditor against rogue job-tier endpoints.

    Three arms share the seed, workload and static target: a fault-free run
    with auditing on (false-alarm control), the attack with auditing on, and
    the same attack with auditing off (damage control group).  The attack is
    two :class:`~repro.faults.StuckActuator` events five seconds apart (the
    first permanent, the second healing ``stuck_heal_after`` seconds later)
    and one flat-mode :class:`~repro.faults.ByzantineModel` sixty seconds in.
    Victims are injector-chosen (most remaining work), so the same drill
    exercises multi-job quarantine, headroom redistribution and the
    rehabilitation path.  The integral trim is zeroed in all three arms so
    any overshoot containment is attributable to the audit layer alone.
    """,
    workload="static",
    params={
        "seed": 3,
        "duration": 900.0,
        "target_power": _NODES * 175.0,
        "attack_time": 240.0,
        "stuck_heal_after": 60.0,
    },
    quick={"duration": 600.0},
    target=lambda p: ConstantTarget(p["target_power"]),
    correction_gain=0.0,
    arms={
        "clean": Arm(config={"audit_enabled": True}),
        "attacked_on": Arm(config={"audit_enabled": True}, faults=_byzantine_attack),
        "attacked_off": Arm(faults=_byzantine_attack),
    },
    metrics=_byzantine_metrics,
)


# -------------------------------------------------------------------- soak

#: Bound on :func:`~repro.invariants.calm_overshoot`, as a fraction of
#: target: fault-free runs stay under ~3 % of target on its 60 s mean.
_SOAK_SUSTAINED_EXCESS = 0.05

#: The soak's fault mix: each template's rate (events per simulated second),
#: every fault finite, so each episode heals before it drains.
SOAK_FAULTS = {
    NodeCrash(time=0.0, down_for=120.0): 1 / 600.0,
    EndpointCrash(time=0.0): 1 / 600.0,
    LinkDegradation(time=0.0, duration=60.0, drop_probability=0.2): 1 / 600.0,
    MeterOutage(time=0.0, duration=60.0): 1 / 600.0,
    CorruptStatus(time=0.0): 1 / 600.0,
    ByzantineModel(time=0.0, duration=120.0): 1 / 300.0,
    StuckActuator(time=0.0, duration=120.0): 1 / 300.0,
    MeterDrift(time=0.0, factor_rate=0.004, duration=120.0): 1 / 300.0,
}


def _soak_arms(p: dict) -> dict[str, Arm]:
    """One episode per seed ``seed``, ``seed + 1`` ... for ``episodes``."""
    episodes = p["episodes"]
    if isinstance(episodes, bool) or not isinstance(episodes, int) or episodes < 1:
        raise ValueError(f"episodes must be a positive integer, got {episodes!r}")
    return {
        f"seed={seed}": Arm(
            config={"seed": seed},
            faults=lambda p, seed=seed: FaultSchedule.random(
                p["duration"], seed=seed, num_nodes=_NODES, rates=SOAK_FAULTS
            ),
        )
        for seed in range(p["seed"], p["seed"] + episodes)
    }


def _soak_violations(run: ArmRun, p: dict) -> list[str]:
    """The online invariants one episode broke (see the scenario's doc)."""
    system, result = run.system, run.result
    seed = system.config.seed
    violations = [
        f"seed={seed} t={when:.1f} {name}: {what}"
        for name, when, what in run.monitor.violations
    ]
    if result.unstarted_jobs:
        violations.append(
            f"seed={seed} drain: {result.unstarted_jobs} jobs never started"
        )
    ghosts = ghost_records(system)
    if ghosts:
        violations.append(f"seed={seed} drain: {ghosts} ghost records")
    # An endpoint crash or a corrupt status may rightly get its job quarantined
    # too: collateral is a quarantine of a job no fault targeted.
    collateral = collateral_quarantines(system)
    if collateral:
        violations.append(f"seed={seed} collateral quarantine: {collateral}")
    worst = calm_overshoot(result.power_trace, system.faults.schedule)
    if worst is not None and worst[1] > _SOAK_SUSTAINED_EXCESS * p["target_power"]:
        violations.append(
            f"seed={seed} t={worst[0]:.1f} sustained calm-window overshoot "
            f"{worst[1]:.1f}W ({CALM_WINDOW}s mean)"
        )
    return violations


def _soak_episode(run: ArmRun, p: dict) -> dict:
    return {
        "seed": run.system.config.seed,
        "num_faults": len(run.system.faults.schedule),
        "completed": len(run.result.completed),
        "quarantines": len(quarantines(run.system)),
        "transitions": len(run.system.manager.auditor.transitions),
        "violations": _soak_violations(run, p),
    }


def _soak_metrics(arms: dict[str, dict], p: dict) -> dict:
    episodes = list(arms.values())
    return {
        "episodes": episodes,
        "total_faults": sum(ep["num_faults"] for ep in episodes),
        "quarantines": sum(ep["quarantines"] for ep in episodes),
        "violations": [v for ep in episodes for v in ep["violations"]],
    }


_SOAK = Scenario(
    doc="""A randomized fault soak of the trust boundary, ``episodes`` long.

    Each episode (one arm per seed, ``seed``, ``seed + 1`` ... for
    ``episodes`` seeds, ``duration`` simulated seconds each) drives a
    fresh seeded system under a :meth:`~repro.faults.FaultSchedule.random`
    mix (rogue endpoints, node and endpoint crashes, corrupt statuses, meter
    outages — all finite duration) with auditing on, and checks online
    invariants:

    * **budget conservation** — every budget round's planned power
      (idle + reserved + allocated) stays within its ceiling;
    * **bounded overshoot** — outside scheduled fault windows (plus a
      settle margin), measured facility power stays near target;
    * **drain** — every submitted job completes; no ghost records;
    * **no collateral quarantine** — only injector-targeted jobs are ever
      quarantined.
    """,
    workload="static",
    params={
        "seed": 7,
        "duration": 600.0,
        "episodes": 240,
        "target_power": _NODES * 180.0,
    },
    quick={"episodes": 4},
    target=lambda p: ConstantTarget(p["target_power"]),
    config=lambda p: {"audit_enabled": True},
    arms=_soak_arms,
    settle=True,
    reduce=_soak_episode,
    metrics=_soak_metrics,
)


# ---------------------------------------------------------------- forecast


def _forecast_target(p: dict) -> SteppedTarget:
    """The Fig. 9 regulation signal as a genuine file-backed target, so the
    schedule forecaster consumes *exact* future breakpoints via ``window()``
    — the deployment shape the paper describes (the manager "periodically
    reads cluster power targets from a file")."""
    period, span = p["manager_period"], p["duration"] * 2
    signal = BoundedRandomWalkSignal(span, step=period, seed=p["seed"] * 104729 + 7)
    regulation = RegulationTarget(
        DEFAULT_AVERAGE_POWER, DEFAULT_RESERVE, signal, update_period=period
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fig9_targets.csv"
        save_target_file(regulation, path, duration=span, step=period)
        return load_target_file(path)


def _rewrites(arm: ArmRun) -> int:
    """Dispatches that changed a job's cap, as the arm's registry counted them."""
    return int(arm.system.telemetry.registry.get_value("anor_cap_rewrites_total"))


def _forecast_metrics(arms: dict[str, ArmRun], p: dict) -> dict:
    reactive, predictive, adversarial = (
        arms["reactive"], arms["predictive"], arms["adversarial"]
    )
    good = predictive.system.manager.planner
    bad = adversarial.system.manager.planner
    base = _error90(reactive.result, p)
    err = _error90(predictive.result, p)
    tripped = bad.envelope.first_fallback_time()
    scored = len(adversarial.rounds) > 0
    return {
        "reactive_error90": base,
        "predictive_error90": err,
        "adversarial_error90": _error90(adversarial.result, p),
        # Predictive / reactive 90th-pct tracking error; < 1 is a win.
        "tracking_ratio": err / base if base > 0 else math.inf,
        "reactive_rewrites": _rewrites(reactive),
        "predictive_rewrites": _rewrites(predictive),
        "adversarial_rewrites": _rewrites(adversarial),
        # Rounds where the plan out-spent the budget ceiling.
        "predictive_violations": len(rounds_over_ceiling(predictive.rounds)),
        "adversarial_violations": len(rounds_over_ceiling(adversarial.rounds)),
        "predictive_mae": good.forecaster.mae,
        "adversarial_mae": bad.forecaster.mae,
        "predictive_warm_hits": good.warm_hits,
        "predictive_held_caps": good.hysteresis_holds,
        "predictive_fallbacks": good.envelope.fallbacks,
        "adversarial_fallbacks": bad.envelope.fallbacks,
        "adversarial_fallback_time": tripped,
        # Seconds from the first scored round to the adversarial trip.
        "fallback_latency": (
            float(tripped - adversarial.rounds[0, 0])
            if tripped is not None and scored
            else None
        ),
        # How quickly the envelope must trip on a persistently wrong
        # forecaster: enough rounds to arm the trip gate plus one full error
        # window, in seconds.
        "fallback_latency_bound": (ERROR_WINDOW + 4) * p["manager_period"],
        "reactive_completed": len(reactive.result.completed),
        "predictive_completed": len(predictive.result.completed),
        "adversarial_completed": len(adversarial.result.completed),
        "reactive_unstarted": reactive.result.unstarted_jobs,
    }


_FORECAST = Scenario(
    doc="""Reactive vs predictive vs adversarial planning on the Fig. 9 target.

    Three arms of the same workload (seed, schedule, file-backed target):
    **reactive** — planning off, the seed control plane; **predictive** —
    schedule forecaster (exact breakpoints), envelope active from round one;
    **adversarial** — inverted-ramp forecaster, deliberately wrong, to prove
    the envelope keeps planned draw inside the reactive bound and trips
    fallback within the configured error window.

    The manager runs at the target's own 4 s cadence; the reactive gate
    anchors 1 s off the target grid (first poll fires at t=1), so every
    target step is seen a second late — the lag the plan instants eliminate.
    """,
    workload="fig9",
    params={
        "seed": 0,
        "duration": 900.0,
        "warmup": 120.0,
        "manager_period": 4.0,
        "hysteresis_watts": 6.0,
        "error_bound_watts": 100.0,
    },
    quick={"duration": 600.0},
    target=_forecast_target,
    config=lambda p: {
        "manager_period": p["manager_period"],
        "plan_hysteresis_watts": p["hysteresis_watts"],
        "plan_error_bound_watts": p["error_bound_watts"],
        # Drills start active: shadow-mode promotion is covered by unit
        # tests, and the adversarial arm must *reach* active to prove
        # fallback engages.
        "plan_shadow_rounds": 0,
    },
    arms={
        "reactive": Arm(),
        "predictive": Arm(config={"plan_enabled": True}),
        "adversarial": Arm(
            config={"plan_enabled": True, "plan_forecaster": "adversarial"}
        ),
    },
    metrics=_forecast_metrics,
)


# -------------------------------------------------------------------- shed

#: Shed-class assignment for the long-running mix: one third of the types in
#: each class, so every severity level has work to act on.
_SHED_CLASS_MAP = {
    "cg": "preemptible",
    "mg": "preemptible",
    "bt": "checkpointable",
    "lu": "checkpointable",
    "ft": "protected",
    "sp": "protected",
}

_SHED_INCIDENTS = (
    ThermalDerate(time=180.0, magnitude=0.15, duration=120.0),
    FeederLoss(time=420.0, magnitude=0.30, duration=150.0),
    DemandResponseEmergency(time=660.0, magnitude=0.55, duration=120.0),
)


def _shed_metrics(arms: dict[str, ArmRun], p: dict) -> dict:
    golden, incident = arms["golden"], arms["incident"]
    shed = incident.system.manager.shed
    golden_shed = golden.system.manager.shed
    classes = {
        req.job_id: _SHED_CLASS_MAP[req.type_name]
        for req in incident.system.schedule.requests
    }
    actions = list(shed.requests)
    killed = sorted({j for _, j, a in actions if a == "kill"})
    preempted = sorted({j for _, j, a in actions if a == "preempt"})
    protected = {j for j, cls in classes.items() if cls == "protected"}
    done = _ids(incident.result)

    # Jobs preempted/killed twice inside one episode (re-shedding a requeued
    # job in a *later* episode is legitimate): the staggered incidents are
    # more than 400 s apart, so two requests within half that are one episode.
    double_shed, seen = set(), {}
    for when, job_id, _ in sorted(actions):
        if job_id in seen and when - seen[job_id] < 200.0:
            double_shed.add(job_id)
        seen[job_id] = when

    return {
        "jobs_by_class": {
            cls: sum(1 for c in classes.values() if c == cls)
            for cls in sorted(set(classes.values()))
        },
        "escalations": shed.ladder.escalations,
        "golden_escalations": golden_shed.ladder.escalations,
        # Escalations beyond one per scheduled incident would be flapping.
        "flap_bound": len(_SHED_INCIDENTS) + 1,
        "preempts": shed.preempts,
        "kills": shed.kills,
        "restores": shed.restores,
        # Must be empty — the plan table makes it structurally impossible.
        "protected_shed": [
            v for v in incident.monitor.violations if v[0] == "protected_never_shed"
        ],
        "kill_order_violations": [
            j for j in killed if classes[j] != "preemptible"
        ],
        "preempt_order_violations": [
            j for j in preempted if classes[j] == "protected"
        ],
        "double_shed": sorted(double_shed),
        # Largest rise of the recovery ceiling between consecutive rounds.
        "max_ramp_step": incident.monitor.max_ramp_step,
        "ramp_bound": RAMP_WATTS_PER_ROUND + RAMP_SLACK,
        # The ladder ends the run back at normal (full recovery).
        "recovered_to_normal": shed.severity == "normal",
        "completed_golden": len(golden.result.completed),
        "completed_incident": len(incident.result.completed),
        # Preempted jobs that neither completed nor were later killed.
        "preempted_unaccounted": sorted(set(preempted) - done - set(killed)),
        "protected_incomplete": sorted(protected - done),
        # Same knobs, no incidents: the golden arm must never shed.
        "golden_clean": (
            not golden_shed.requests
            and not golden_shed.ladder.transitions
            and golden_shed.ladder.escalations == 0
        ),
        "injector_quiescent": incident.system.faults.quiescent,
        "severity_log": list(shed.ladder.transitions),
        "shed_actions": [
            f"t={when:7.1f} {job_id}: {action} ({classes[job_id]})"
            for when, job_id, action in actions
        ],
        "incident_counts": dict(incident.system.telemetry.incident_counts),
    }


_SHED = Scenario(
    doc="""Walk the degradation ladder through all three severities and back.

    Both arms share the seed, workload, static target and shed
    configuration; only the facility incidents differ.  The incident arm
    takes three staggered feed events, so every rung of the ladder fires
    and recovers in one run:

    * t=180s: :class:`~repro.faults.ThermalDerate` at 15 % for 120 s —
      brownout-1, preemptible jobs capped to floor;
    * t=420s: :class:`~repro.faults.FeederLoss` at 30 % for 150 s —
      brownout-2, preemptible jobs preempted, checkpointable floored;
    * t=660s: :class:`~repro.faults.DemandResponseEmergency` at 55 % for
      120 s — blackstart, preemptible killed, checkpointable preempted,
      protected floored (never preempted or killed).

    After each window the feed returns and the budget ceiling ramps back at
    ``RAMP_WATTS_PER_ROUND`` per manager round while severity steps down one
    rung per clear window — the asymmetric hysteresis that prevents
    flapping.  The incident stagger is fixed, so ``--quick`` changes nothing.
    """,
    workload="static",
    params={
        "seed": 11,
        "duration": 900.0,
        "target_power": _NODES * 180.0,
    },
    target=lambda p: ConstantTarget(p["target_power"]),
    config=lambda p: {
        "shed_enabled": True,
        "shed_classes": dict(_SHED_CLASS_MAP),
    },
    arms={
        "golden": Arm(),
        "incident": Arm(faults=lambda p: FaultSchedule(list(_SHED_INCIDENTS))),
    },
    metrics=_shed_metrics,
)


SCENARIOS: dict[str, Scenario] = {
    "faults": _FAULTS,
    "headnode": _HEADNODE,
    "partition": _PARTITION,
    "byzantine": _BYZANTINE,
    "soak": _SOAK,
    "forecast": _FORECAST,
    "shed": _SHED,
}
