"""Resilience scorecard: the Fig. 9 workload under the standard fault load.

The paper evaluates demand-response tracking on a healthy cluster; a
deployable framework must keep tracking through the faults real clusters
throw at it.  This experiment runs the *same* Fig. 9 workload (same seed,
same arrival schedule, same target signal) twice — once healthy, once under
:meth:`~repro.faults.FaultSchedule.standard_load` (one node crash, one
endpoint crash, 5 % link loss across the run, one corrupt status, one 60 s
meter outage) — and compares:

* tracking error (90th percentile, post-warmup) — faults must cost at most
  a bounded factor, not blow up control;
* completion — every submitted job drains, including the crash-requeued one;
* hygiene — zero ghost ``JobRecord`` entries once the cluster drains, and
  the fault event log is fully accounted for (every window closed).
"""

from __future__ import annotations

import math
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from repro.analysis.tracking import tracking_error_series
from repro.aqa.regulation import BoundedRandomWalkSignal
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.framework import AnorConfig, AnorResult, AnorSystem, precharacterized_models
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
    Fig9Result,
    build_demand_response_system,
)
from repro.facility.shed import SEVERITY_VALUES
from repro.faults.events import (
    ByzantineModel,
    DemandResponseEmergency,
    FeederLoss,
    HeadNodeCrash,
    MeterDrift,
    NetworkPartition,
    PartitionEnd,
    PartitionStart,
    StuckActuator,
    ThermalDerate,
)
from repro.faults.schedule import FaultSchedule
from repro.modeling.classifier import JobClassifier
from repro.telemetry import summarize_incidents
from repro.workloads.generator import PoissonScheduleGenerator
from repro.workloads.nas import NAS_TYPES, P_NODE_MIN, long_running_mix

__all__ = [
    "ResilienceResult",
    "run_resilience",
    "format_table",
    "HeadNodeRecoveryResult",
    "run_headnode_recovery",
    "format_headnode_table",
    "PartitionDrillResult",
    "run_partition_drill",
    "format_partition_table",
    "ByzantineDrillResult",
    "run_byzantine_drill",
    "format_byzantine_table",
    "ChaosSoakResult",
    "run_chaos_soak",
    "format_soak_table",
    "ForecastDrillResult",
    "run_forecast_drill",
    "format_forecast_table",
    "ShedDrillResult",
    "run_shed_drill",
    "format_shed_table",
]


@dataclass
class ResilienceResult:
    """Healthy-vs-faulted comparison of one demand-response run."""

    healthy: Fig9Result
    faulted: Fig9Result
    schedule: FaultSchedule
    ghost_jobs: int  # manager JobRecords alive after the settle window
    injector_quiescent: bool  # every event fired, every fault window closed
    # Telemetry streams from the faulted run (DESIGN.md §8): incidents by
    # category (event bus) and control-plane decision counters (registry).
    incident_counts: dict[str, int] = field(default_factory=dict)
    decision_counts: dict[str, float] = field(default_factory=dict)

    @property
    def healthy_error90(self) -> float:
        return self.healthy.error_at_90th()

    @property
    def faulted_error90(self) -> float:
        return self.faulted.error_at_90th()

    @property
    def degradation_ratio(self) -> float:
        """Faulted / healthy 90th-percentile tracking error."""
        base = self.healthy_error90
        return self.faulted_error90 / base if base > 0 else float("inf")

    @property
    def requeued(self) -> list[str]:
        return self.faulted.result.requeued

    @property
    def requeued_completed(self) -> bool:
        """Every job requeued by a crash eventually produced totals."""
        done = {t.job_id for t in self.faulted.result.completed}
        return all(job_id in done for job_id in self.requeued)

    @property
    def fault_log(self) -> list[str]:
        return self.faulted.result.fault_log


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
        "link msgs dropped": "anor_link_messages_dropped_total",
    }
    out: dict[str, float] = {}
    for label, metric in names.items():
        if metric == "anor_link_messages_dropped_total":
            # Labelled by reason; sum the family.
            total = 0.0
            for name, _, _, rows in reg.families():
                if name == metric:
                    total = sum(inst.value for _, inst in rows)
            out[label] = total
            continue
        value = reg.get_value(metric)
        if value is not None:
            out[label] = value
    return out


def _run_one(
    *,
    duration: float,
    seed: int,
    warmup: float,
    average_power: float,
    reserve: float,
    fault_schedule: FaultSchedule | None,
) -> tuple[Fig9Result, int, bool, AnorSystem]:
    # Telemetry rides along on the faulted/healthy comparison: incidents and
    # decision counters feed the resilience report, and bit-identity with
    # telemetry off is separately pinned by tests/test_telemetry_noop.py.
    system = build_demand_response_system(
        duration=duration,
        average_power=average_power,
        reserve=reserve,
        seed=seed,
        fault_schedule=fault_schedule,
        config=AnorConfig(seed=seed, telemetry_enabled=True),
    )
    result = system.run(duration, until_idle=True, max_time=duration + 3600.0)
    # Settle: after the last job drains, goodbyes are still in flight and any
    # silently-dead record needs dead_job_timeout to pass before eviction.
    settle = int(system.config.dead_job_timeout + 10)
    for _ in range(settle):
        system.step()
    # Score tracking only over the scheduled window: past `duration` the
    # cluster is draining toward empty while the target stays committed, so
    # the tail would swamp the healthy-vs-faulted comparison for both runs.
    trace = result.power_trace
    if len(trace):
        result = replace(result, power_trace=trace[trace[:, 0] <= duration])
    fig9 = Fig9Result(
        result=result,
        average_power=average_power,
        reserve=reserve,
        warmup=warmup,
    )
    quiescent = system.faults.quiescent if system.faults is not None else True
    ghosts = len(system.manager.jobs) if system.manager is not None else 0
    return fig9, ghosts, quiescent, system


def run_resilience(
    *,
    duration: float = 3600.0,
    seed: int = 0,
    warmup: float = 300.0,
    average_power: float = DEFAULT_AVERAGE_POWER,
    reserve: float = DEFAULT_RESERVE,
    schedule: FaultSchedule | None = None,
) -> ResilienceResult:
    """Run the Fig. 9 workload healthy and under a fault load, and compare."""
    if schedule is None:
        schedule = FaultSchedule.standard_load(duration)
    healthy, _, _, _ = _run_one(
        duration=duration,
        seed=seed,
        warmup=warmup,
        average_power=average_power,
        reserve=reserve,
        fault_schedule=None,
    )
    faulted, ghosts, quiescent, faulted_sys = _run_one(
        duration=duration,
        seed=seed,
        warmup=warmup,
        average_power=average_power,
        reserve=reserve,
        fault_schedule=schedule,
    )
    return ResilienceResult(
        healthy=healthy,
        faulted=faulted,
        schedule=schedule,
        ghost_jobs=ghosts,
        injector_quiescent=quiescent,
        incident_counts=faulted_sys.telemetry.incident_counts,
        decision_counts=_decision_summary(faulted_sys),
    )


def _build_static_system(
    *,
    duration: float,
    seed: int,
    target_power: float,
    num_nodes: int,
    checkpoint_dir: str | None,
    checkpoint_period: float,
    recovery_timeout: float,
    fault_schedule: FaultSchedule | None,
    target_source: PowerTargetSource | None = None,
    lease_ttl: float | None = None,
    lease_ramp_seconds: float = 30.0,
    reliable_messaging: bool = False,
    breaker_margin: float | None = None,
    audit_enabled: bool = False,
    correction_gain: float | None = None,
    shed_enabled: bool = False,
    shed_classes: dict | None = None,
    shed_ramp_watts: float = 100.0,
) -> AnorSystem:
    """The head-node recovery workload: long jobs under a *static* target.

    A static target makes the golden/recovered comparison exact — every
    divergence between the two traces is attributable to the outage, not to
    target motion racing the recovery window.  The partition drill reuses the
    same workload with a stepped target and the lease/reliability knobs on.
    """
    types = {jt.name: jt for jt in long_running_mix()}
    generator = PoissonScheduleGenerator(
        list(types.values()), utilization=0.9, total_nodes=num_nodes,
        seed=seed * 7919 + 13,
    )
    schedule = generator.generate(duration)
    cfg = AnorConfig(
        num_nodes=num_nodes,
        seed=seed,
        checkpoint_dir=checkpoint_dir,
        checkpoint_period=checkpoint_period,
        recovery_timeout=recovery_timeout,
        telemetry_enabled=True,
        lease_ttl=lease_ttl,
        lease_ramp_seconds=lease_ramp_seconds,
        reliable_messaging=reliable_messaging,
        breaker_margin=breaker_margin,
        audit_enabled=audit_enabled,
        shed_enabled=shed_enabled,
        shed_classes=shed_classes,
        shed_ramp_watts=shed_ramp_watts,
    )
    system = AnorSystem(
        budgeter=EvenSlowdownBudgeter(),
        target_source=target_source or ConstantTarget(target_power),
        classifier=JobClassifier(precharacterized_models(NAS_TYPES)),
        schedule=schedule,
        job_types=types,
        config=cfg,
        fault_schedule=fault_schedule,
    )
    if correction_gain is not None:
        # Scenario override (e.g. the byzantine drill zeroes the integral
        # trim so overshoot attribution is purely the audit layer's doing).
        system.manager.correction_gain = correction_gain
    return system


def _drive(system: AnorSystem, *, max_time: float) -> tuple[AnorResult, np.ndarray]:
    """Run a system to drain, sampling the manager's planned draw per round.

    Returns ``(result, rounds)`` where rounds columns are (time, budget
    ceiling = max(target+correction, floor), planned draw = idle+reserved+
    allocated) — the raw material for the never-exceed-target invariant.
    """
    rows: list[tuple[float, float, float]] = []
    last_time = None
    while (
        system._pending or system._queue or system.cluster.running
    ) and system.cluster.clock.now < max_time:
        system.step()
        mgr = system.manager
        rnd = mgr.last_round if mgr is not None else None
        if rnd is not None and rnd.time != last_time:
            last_time = rnd.time
            ceiling = max(rnd.target + rnd.correction, rnd.floor)
            planned = rnd.idle_power + rnd.reserved + rnd.allocated
            rows.append((rnd.time, ceiling, planned))
    result = system.run(0.0)
    rounds = np.asarray(rows) if rows else np.empty((0, 3))
    return result, rounds


@dataclass
class HeadNodeRecoveryResult:
    """Golden-vs-recovered comparison of one head-node outage."""

    golden: AnorResult
    recovered: AnorResult
    target_power: float
    crash_time: float
    down_for: float
    recovery_merges: int  # live jobs reconciled against checkpointed state
    checkpoints_written: int
    rounds: np.ndarray  # (time, ceiling, planned) for the recovered run
    convergence_tol: float = 0.05
    convergence_window: int = 30
    orphaned: list[str] = field(default_factory=list)
    # Incident stream from the recovered run's event bus (crash, journal
    # tail drops, cold restarts, restart cancellations ... by category).
    incident_counts: dict[str, int] = field(default_factory=dict)

    @property
    def restart_time(self) -> float:
        return self.crash_time + self.down_for

    @property
    def budget_violations(self) -> int:
        """Budget rounds whose planned draw exceeded the enforceable ceiling.

        0.1 W of slack on a multi-kilowatt ceiling absorbs the budgeter's
        bisection/fp slop (present in healthy runs too); anything beyond it
        is a real over-commitment.
        """
        if not len(self.rounds):
            return 0
        return int(np.sum(self.rounds[:, 2] > self.rounds[:, 1] + 0.1))

    @property
    def lost_jobs(self) -> list[str]:
        """Jobs the golden run completed that the recovered run lost."""
        gold = {t.job_id for t in self.golden.completed}
        got = {t.job_id for t in self.recovered.completed}
        return sorted(gold - got)

    @property
    def double_admitted(self) -> list[str]:
        """Jobs that produced completion totals more than once."""
        seen: dict[str, int] = {}
        for t in self.recovered.completed:
            seen[t.job_id] = seen.get(t.job_id, 0) + 1
        return sorted(j for j, n in seen.items() if n > 1)

    @property
    def convergence_time(self) -> float | None:
        """Seconds after restart until the recovered trace re-converges.

        Convergence = the recovered run's measured power staying within
        ``convergence_tol``·target of the golden run's for
        ``convergence_window`` consecutive samples.  ``None`` = never.
        """
        gold, rec = self.golden.power_trace, self.recovered.power_trace
        n = min(len(gold), len(rec))
        if n == 0:
            return None
        mask = np.abs(rec[:n, 2] - gold[:n, 2]) <= self.convergence_tol * self.target_power
        start = np.searchsorted(rec[:n, 0], self.restart_time)
        window = self.convergence_window
        for i in range(start, n - window + 1):
            if mask[i : i + window].all():
                return float(rec[i, 0] - self.restart_time)
        return None


def run_headnode_recovery(
    *,
    duration: float = 900.0,
    seed: int = 1,
    target_power: float = 16 * 170.0,
    num_nodes: int = 16,
    crash_time: float = 300.0,
    down_for: float = 60.0,
    checkpoint_dir: str | None = None,
    checkpoint_period: float = 30.0,
    recovery_timeout: float = 30.0,
) -> HeadNodeRecoveryResult:
    """Crash the head node mid-run and score the recovery against a golden run.

    Both runs share the seed, schedule, and static target; only the crash
    differs.  The golden run also checkpoints (into a sibling directory), so
    any overhead of persistence is present on both sides of the comparison.
    """
    base = Path(checkpoint_dir) if checkpoint_dir is not None else Path(
        tempfile.mkdtemp(prefix="anor-headnode-")
    )
    max_time = duration + 7200.0
    golden_sys = _build_static_system(
        duration=duration, seed=seed, target_power=target_power,
        num_nodes=num_nodes, checkpoint_dir=str(base / "golden"),
        checkpoint_period=checkpoint_period, recovery_timeout=recovery_timeout,
        fault_schedule=None,
    )
    golden, _ = _drive(golden_sys, max_time=max_time)
    recovered_sys = _build_static_system(
        duration=duration, seed=seed, target_power=target_power,
        num_nodes=num_nodes, checkpoint_dir=str(base / "recovered"),
        checkpoint_period=checkpoint_period, recovery_timeout=recovery_timeout,
        fault_schedule=FaultSchedule(
            [HeadNodeCrash(time=crash_time, down_for=down_for)]
        ),
    )
    recovered, rounds = _drive(recovered_sys, max_time=max_time)
    merges = (
        recovered_sys.manager.recovery_merges
        if recovered_sys.manager is not None
        else 0
    )
    checkpoints = (
        recovered_sys.durable.checkpoints_written
        if recovered_sys.durable is not None
        else 0
    )
    return HeadNodeRecoveryResult(
        golden=golden,
        recovered=recovered,
        target_power=target_power,
        crash_time=crash_time,
        down_for=down_for,
        recovery_merges=merges,
        checkpoints_written=checkpoints,
        rounds=rounds,
        orphaned=list(recovered.orphaned),
        incident_counts=dict(recovered_sys.telemetry.incident_counts),
    )


def format_headnode_table(res: HeadNodeRecoveryResult) -> str:
    conv = res.convergence_time
    lines = [
        f"head-node outage               : t={res.crash_time:.0f}s for {res.down_for:.0f}s",
        f"checkpoints written            : {res.checkpoints_written}",
        f"budget rounds over ceiling     : {res.budget_violations}",
        f"jobs completed golden/recovered: "
        f"{len(res.golden.completed)}/{len(res.recovered.completed)}",
        f"jobs lost to the outage        : {len(res.lost_jobs)}"
        + (f"  {res.lost_jobs}" if res.lost_jobs else ""),
        f"double-admitted jobs           : {len(res.double_admitted)}",
        f"live jobs reconciled (re-HELLO): {res.recovery_merges}",
        f"orphans after recovery window  : {len(res.orphaned)}"
        + (f"  {res.orphaned}" if res.orphaned else ""),
        "trace re-convergence           : "
        + (f"{conv:.0f}s after restart" if conv is not None else "NEVER"),
        "recovery log:",
    ]
    lines.extend(f"  {line}" for line in res.recovered.recovery_log)
    if res.incident_counts:
        lines.append("incident summary:")
        lines.extend(summarize_incidents(res.incident_counts))
    return "\n".join(lines)


def format_table(res: ResilienceResult) -> str:
    lines = [
        f"healthy tracking error 90th pct: {100 * res.healthy_error90:5.1f}%",
        f"faulted tracking error 90th pct: {100 * res.faulted_error90:5.1f}%"
        f"  ({res.degradation_ratio:.2f}x healthy, bound 1.50x)",
        f"jobs completed healthy/faulted : "
        f"{len(res.healthy.result.completed)}/{len(res.faulted.result.completed)}",
        f"jobs requeued by crashes       : {len(res.requeued)}"
        f"  (all finished: {'yes' if res.requeued_completed else 'NO'})",
        f"ghost job records at drain     : {res.ghost_jobs}",
        f"fault windows all closed       : "
        f"{'yes' if res.injector_quiescent else 'NO'}",
        "fault event log:",
    ]
    lines.extend(f"  {line}" for line in res.fault_log)
    if res.incident_counts:
        lines.append("incident summary:")
        lines.extend(summarize_incidents(res.incident_counts))
    if res.decision_counts:
        lines.append("control-plane decisions (faulted run):")
        width = max(len(k) for k in res.decision_counts)
        lines.extend(
            f"  {label:<{width}} : {int(value)}"
            for label, value in res.decision_counts.items()
        )
    return "\n".join(lines)


# ------------------------------------------------------------ partition drill


@dataclass
class PartitionDrillResult:
    """Golden-vs-partitioned comparison of one head↔endpoint partition.

    Both runs share the seed, schedule, stepped target, and lease
    configuration; only the :class:`~repro.faults.NetworkPartition` differs.
    The target steps *down* shortly after the partition opens — the dangerous
    direction: every endpoint holds a cap sized for the old, higher target
    and the head cannot deliver the lower one.  The drill's headline claim is
    the dead-man bound: the cluster may sit above the enforceable limit only
    for a stretch bounded by ``lease_ttl + lease_ramp (+ slack)``.
    """

    golden: AnorResult
    partitioned: AnorResult
    high_power: float
    low_power: float
    step_time: float
    partition_time: float
    partition_duration: float
    lease_ttl: float
    lease_ramp: float
    floor_power: float  # enforceable cluster floor (all nodes at p_min)
    slack: float = 30.0  # control-period + epoch granularity allowance
    tol: float = 0.10
    injector_quiescent: bool = True
    convergence_window: int = 30
    incident_counts: dict[str, int] = field(default_factory=dict)
    partition_events: list = field(default_factory=list)

    @property
    def heal_time(self) -> float:
        return self.partition_time + self.partition_duration

    @property
    def overshoot_bound(self) -> float:
        """The fail-safe guarantee: max tolerated over-limit stretch."""
        return self.lease_ttl + self.lease_ramp + self.slack

    def _longest_over_limit(self, trace: np.ndarray) -> float:
        """Longest contiguous stretch past ``partition_time`` with measured
        power above ``max(target, floor)·(1+tol)``, in seconds."""
        if not len(trace):
            return 0.0
        t, target, measured = trace[:, 0], trace[:, 1], trace[:, 2]
        limit = np.maximum(target, self.floor_power) * (1.0 + self.tol)
        over = (measured > limit) & (t >= self.partition_time)
        best, start = 0.0, None
        for i in range(len(t)):
            if over[i]:
                if start is None:
                    start = t[i]
                best = max(best, float(t[i] - start))
            else:
                start = None
        return best

    @property
    def overshoot_seconds(self) -> float:
        return self._longest_over_limit(self.partitioned.power_trace)

    @property
    def golden_overshoot_seconds(self) -> float:
        return self._longest_over_limit(self.golden.power_trace)

    @property
    def degraded_endpoints(self) -> int:
        """Lease expiries observed (degraded-autonomy incidents)."""
        return self.incident_counts.get("degraded-autonomy-start", 0)

    @property
    def partitions_detected(self) -> int:
        return sum(1 for f in self.partition_events if isinstance(f, PartitionStart))

    @property
    def partitions_healed(self) -> int:
        return sum(1 for f in self.partition_events if isinstance(f, PartitionEnd))

    @property
    def lost_jobs(self) -> list[str]:
        """Jobs the golden run completed that the partitioned run lost."""
        gold = {t.job_id for t in self.golden.completed}
        got = {t.job_id for t in self.partitioned.completed}
        return sorted(gold - got)

    @property
    def convergence_time(self) -> float | None:
        """Seconds after the heal until the partitioned trace re-converges.

        Convergence = measured power staying within ``tol``·low_power of the
        golden run's for ``convergence_window`` consecutive samples.
        """
        gold, part = self.golden.power_trace, self.partitioned.power_trace
        n = min(len(gold), len(part))
        if n == 0:
            return None
        mask = np.abs(part[:n, 2] - gold[:n, 2]) <= self.tol * self.low_power
        start = int(np.searchsorted(part[:n, 0], self.heal_time))
        window = self.convergence_window
        for i in range(start, n - window + 1):
            if mask[i : i + window].all():
                return float(part[i, 0] - self.heal_time)
        return None


def run_partition_drill(
    *,
    duration: float = 900.0,
    seed: int = 7,
    num_nodes: int = 16,
    high_power: float | None = None,
    low_power: float | None = None,
    partition_time: float = 300.0,
    partition_duration: float = 240.0,
    step_into: float = 10.0,
    lease_ttl: float = 30.0,
    lease_ramp: float = 60.0,
    slack: float = 30.0,
    tol: float = 0.10,
    breaker_margin: float | None = None,
) -> PartitionDrillResult:
    """Partition the head from every endpoint mid-run and score the fail-safe.

    The target steps from ``high_power`` down to ``low_power`` at
    ``partition_time + step_into`` — inside the partition window, while the
    endpoints still hold valid leases sized for the high target.  Leases then
    expire, caps decay to the floor, the partition heals, and tracking must
    re-converge to the golden run.
    """
    if high_power is None:
        high_power = num_nodes * 220.0
    if low_power is None:
        low_power = num_nodes * 175.0
    step_time = partition_time + step_into
    if not partition_time < step_time < partition_time + partition_duration:
        raise ValueError(
            f"target step at t={step_time} must fall inside the partition "
            f"window [{partition_time}, {partition_time + partition_duration}]"
        )
    target = SteppedTarget([0.0, step_time], [high_power, low_power])
    common = dict(
        duration=duration,
        seed=seed,
        target_power=high_power,
        num_nodes=num_nodes,
        checkpoint_dir=None,
        checkpoint_period=30.0,
        recovery_timeout=30.0,
        target_source=target,
        lease_ttl=lease_ttl,
        lease_ramp_seconds=lease_ramp,
        reliable_messaging=True,
        breaker_margin=breaker_margin,
    )
    max_time = duration + 7200.0
    golden_sys = _build_static_system(fault_schedule=None, **common)
    golden, _ = _drive(golden_sys, max_time=max_time)
    part_sys = _build_static_system(
        fault_schedule=FaultSchedule(
            [NetworkPartition(time=partition_time, duration=partition_duration)]
        ),
        **common,
    )
    partitioned, _ = _drive(part_sys, max_time=max_time)
    quiescent = part_sys.faults.quiescent if part_sys.faults is not None else True
    return PartitionDrillResult(
        golden=golden,
        partitioned=partitioned,
        high_power=high_power,
        low_power=low_power,
        step_time=step_time,
        partition_time=partition_time,
        partition_duration=partition_duration,
        lease_ttl=lease_ttl,
        lease_ramp=lease_ramp,
        floor_power=num_nodes * P_NODE_MIN,
        slack=slack,
        tol=tol,
        injector_quiescent=quiescent,
        incident_counts=dict(part_sys.telemetry.incident_counts),
        partition_events=list(partitioned.partition_events),
    )


def format_partition_table(res: PartitionDrillResult) -> str:
    conv = res.convergence_time
    lines = [
        f"partition window               : t={res.partition_time:.0f}s "
        f"for {res.partition_duration:.0f}s (all head↔endpoint links)",
        f"target step (inside partition) : {res.high_power:.0f}W -> "
        f"{res.low_power:.0f}W at t={res.step_time:.0f}s",
        f"lease: ttl/ramp/slack          : {res.lease_ttl:.0f}s / "
        f"{res.lease_ramp:.0f}s / {res.slack:.0f}s",
        f"over-limit stretch (partition) : {res.overshoot_seconds:.0f}s "
        f"(bound {res.overshoot_bound:.0f}s, golden "
        f"{res.golden_overshoot_seconds:.0f}s)",
        f"lease expiries (degraded mode) : {res.degraded_endpoints}",
        f"partitions detected/healed     : {res.partitions_detected}/"
        f"{res.partitions_healed}",
        f"jobs completed golden/partition: "
        f"{len(res.golden.completed)}/{len(res.partitioned.completed)}",
        f"jobs lost to the partition     : {len(res.lost_jobs)}"
        + (f"  {res.lost_jobs}" if res.lost_jobs else ""),
        f"fault windows all closed       : "
        f"{'yes' if res.injector_quiescent else 'NO'}",
        "trace re-convergence           : "
        + (f"{conv:.0f}s after heal" if conv is not None else "NEVER"),
    ]
    if res.incident_counts:
        lines.append("incident summary:")
        lines.extend(summarize_incidents(res.incident_counts))
    return "\n".join(lines)


# ------------------------------------------------------------ byzantine drill


def _overshoot_stats(
    trace: np.ndarray, t0: float, t1: float
) -> tuple[float, float]:
    """(over-target energy in J, mean measured−target in W) on [t0, t1)."""
    if not len(trace):
        return 0.0, 0.0
    mask = (trace[:, 0] >= t0) & (trace[:, 0] < t1)
    t, target, measured = trace[mask, 0], trace[mask, 1], trace[mask, 2]
    if len(t) < 2:
        return 0.0, 0.0
    dt = np.diff(t, append=t[-1])
    over = np.maximum(measured - target, 0.0)
    return float(np.sum(over * dt)), float(np.mean(measured - target))


_ROGUE_KINDS = ("stuck-actuator", "byzantine-model", "meter-drift")


def _parse_rogue_victims(
    fault_log: list[str], kinds: tuple = _ROGUE_KINDS
) -> dict[str, tuple[str, float]]:
    """``job_id -> (fault kind, fire time)`` from an injector log."""
    victims: dict[str, tuple[str, float]] = {}
    for line in fault_log:
        fields = line.split()
        if not fields or not fields[0].startswith("t="):
            continue
        # The timestamp is space-padded, so "t=" and the number may split.
        rest = fields[1:] if fields[0] == "t=" else [fields[0][2:], *fields[1:]]
        if len(rest) < 3:
            continue
        when, kind, target = float(rest[0]), rest[1], rest[2]
        if kind in kinds and target.startswith("job="):
            victims.setdefault(target[len("job="):], (kind, when))
    return victims


@dataclass
class ByzantineDrillResult:
    """Golden-vs-attacked comparison of the job-tier trust boundary.

    Three runs share the seed, workload, and static target: a fault-free
    run with auditing on (false-alarm control), the attack with auditing
    on, and the same attack with auditing off (damage control group).  The
    attack wedges two actuators open (one heals mid-run) and has a third
    endpoint ship fabricated model coefficients.  The integral trim is
    zeroed in all three runs so any overshoot containment is attributable
    to the audit layer alone.
    """

    clean: AnorResult
    attacked_on: AnorResult
    attacked_off: AnorResult
    target_power: float
    heal_time: float
    healed_victim: str | None
    victims_on: dict  # job_id -> (fault kind, fire time), audit-on run
    transitions_clean: list
    transitions_on: list
    settle: float = 45.0
    detection_bound: float = 60.0  # s from fault fire to quarantine
    rehab_bound: float = 150.0  # s from actuator heal to trusted again
    attack_start: float = 240.0

    @property
    def false_quarantines_clean(self) -> list:
        return [t for t in self.transitions_clean if t.new == "quarantined"]

    @property
    def quarantined_on(self) -> dict:
        """job_id -> first quarantine time in the attacked audit-on run."""
        out: dict[str, float] = {}
        for t in self.transitions_on:
            if t.new == "quarantined" and t.job_id not in out:
                out[t.job_id] = t.time
        return out

    @property
    def collateral_quarantines(self) -> list[str]:
        return sorted(set(self.quarantined_on) - set(self.victims_on))

    @property
    def detection_latencies(self) -> dict:
        """job_id -> seconds from fault fire to first quarantine."""
        q = self.quarantined_on
        return {
            job_id: q[job_id] - fired
            for job_id, (_, fired) in self.victims_on.items()
            if job_id in q
        }

    @property
    def missed_victims(self) -> list[str]:
        return sorted(set(self.victims_on) - set(self.quarantined_on))

    @property
    def last_quarantine(self) -> float:
        q = self.quarantined_on
        return max(q.values()) if q else self.attack_start

    def _segments(self, result: AnorResult) -> tuple[float, float, float, float]:
        """(detect kJ, detect mean W, settled kJ, settled mean W)."""
        split = self.last_quarantine + self.settle
        end = float(result.power_trace[-1, 0]) if len(result.power_trace) else split
        e0, m0 = _overshoot_stats(result.power_trace, self.attack_start, split)
        e1, m1 = _overshoot_stats(result.power_trace, split, end)
        return e0 / 1000.0, m0, e1 / 1000.0, m1

    @property
    def on_detect_energy(self) -> float:
        return self._segments(self.attacked_on)[0]

    @property
    def on_settled_mean(self) -> float:
        return self._segments(self.attacked_on)[3]

    @property
    def off_detect_mean(self) -> float:
        return self._segments(self.attacked_off)[1]

    @property
    def on_total_energy(self) -> float:
        seg = self._segments(self.attacked_on)
        return seg[0] + seg[2]

    @property
    def off_total_energy(self) -> float:
        seg = self._segments(self.attacked_off)
        return seg[0] + seg[2]

    @property
    def rehabilitated(self) -> bool:
        """The healed actuator's job re-earned trust within the bound."""
        if self.healed_victim is None:
            return False
        for t in self.transitions_on:
            if (
                t.job_id == self.healed_victim
                and t.new == "trusted"
                and self.heal_time <= t.time <= self.heal_time + self.rehab_bound
            ):
                return True
        return False

    @property
    def unhealed_still_quarantined(self) -> bool:
        """Victims whose fault never heals must never leave quarantine.

        Checked from the transition log, not drain-time state: the auditor
        forgets a job once it completes, and a wedged-open victim runs at
        full speed, so it usually finishes long before the run drains.
        """
        healed = {self.healed_victim}
        for job_id in self.victims_on:
            if job_id in healed:
                continue
            last = [t for t in self.transitions_on if t.job_id == job_id]
            if not last or last[-1].new != "quarantined":
                return False
        return True


def run_byzantine_drill(
    *,
    duration: float = 900.0,
    seed: int = 3,
    num_nodes: int = 16,
    target_power: float | None = None,
    attack_time: float = 240.0,
    stuck_heal_after: float = 60.0,
) -> ByzantineDrillResult:
    """Score the cap-compliance auditor against rogue job-tier endpoints.

    The attack: two :class:`~repro.faults.StuckActuator` events five seconds
    apart (the first permanent, the second healing ``stuck_heal_after``
    seconds later) and one flat-mode :class:`~repro.faults.ByzantineModel`
    sixty seconds in.  Victims are injector-chosen (most remaining work),
    so the same drill exercises multi-job quarantine, headroom
    redistribution, and the rehabilitation path.
    """
    if target_power is None:
        target_power = num_nodes * 175.0
    common = dict(
        duration=duration,
        seed=seed,
        target_power=target_power,
        num_nodes=num_nodes,
        checkpoint_dir=None,
        checkpoint_period=30.0,
        recovery_timeout=60.0,
        correction_gain=0.0,
    )
    max_time = duration + 7200.0

    def attack() -> FaultSchedule:
        return FaultSchedule(
            [
                StuckActuator(time=attack_time),
                StuckActuator(time=attack_time + 5.0, duration=stuck_heal_after),
                ByzantineModel(time=attack_time + 60.0, mode="flat"),
            ]
        )

    clean_sys = _build_static_system(
        fault_schedule=None, audit_enabled=True, **common
    )
    clean, _ = _drive(clean_sys, max_time=max_time)
    transitions_clean = list(clean_sys.manager.auditor.transitions)

    on_sys = _build_static_system(
        fault_schedule=attack(), audit_enabled=True, **common
    )
    attacked_on, _ = _drive(on_sys, max_time=max_time)
    transitions_on = list(on_sys.manager.auditor.transitions)
    victims_on = _parse_rogue_victims(attacked_on.fault_log)
    healed_victim = None
    for line in attacked_on.fault_log:
        if "stuck-actuator" in line and f"duration={stuck_heal_after:.1f}" in line:
            healed_victim = line.split("job=")[1].split()[0]

    off_sys = _build_static_system(
        fault_schedule=attack(), audit_enabled=False, **common
    )
    attacked_off, _ = _drive(off_sys, max_time=max_time)

    return ByzantineDrillResult(
        clean=clean,
        attacked_on=attacked_on,
        attacked_off=attacked_off,
        target_power=target_power,
        heal_time=attack_time + 5.0 + stuck_heal_after,
        healed_victim=healed_victim,
        victims_on=victims_on,
        transitions_clean=transitions_clean,
        transitions_on=transitions_on,
        attack_start=attack_time,
    )


def format_byzantine_table(res: ByzantineDrillResult) -> str:
    latencies = res.detection_latencies
    lines = [
        f"target (static, trim zeroed)   : {res.target_power:.0f}W",
        f"victims (audit-on run)         : "
        + ", ".join(
            f"{jid} ({kind} @t={fired:.0f}s)"
            for jid, (kind, fired) in sorted(res.victims_on.items())
        ),
        f"false quarantines (clean run)  : {len(res.false_quarantines_clean)}",
        f"victims quarantined            : "
        f"{len(latencies)}/{len(res.victims_on)}"
        + (f"  missed: {res.missed_victims}" if res.missed_victims else ""),
        "detection latency              : "
        + ", ".join(
            f"{jid}: {lat:.0f}s" for jid, lat in sorted(latencies.items())
        ),
        f"collateral quarantines         : {len(res.collateral_quarantines)}"
        + (f"  {res.collateral_quarantines}" if res.collateral_quarantines else ""),
        f"over-target energy on/off      : {res.on_total_energy:.1f} / "
        f"{res.off_total_energy:.1f} kJ after the attack",
        f"audit-off mean excess (detect) : {res.off_detect_mean:+.0f}W",
        f"audit-on mean excess (settled) : {res.on_settled_mean:+.0f}W",
        f"healed actuator rehabilitated  : "
        f"{'yes' if res.rehabilitated else 'NO'}"
        + (
            f"  ({res.healed_victim}, heal t={res.heal_time:.0f}s)"
            if res.healed_victim
            else ""
        ),
        f"unhealed victims still held    : "
        f"{'yes' if res.unhealed_still_quarantined else 'NO'}",
        "trust transitions (attacked, audit on):",
    ]
    lines.extend(
        f"  t={t.time:7.1f} {t.job_id}: {t.old} -> {t.new} ({t.reason})"
        for t in res.transitions_on
    )
    return "\n".join(lines)


# --------------------------------------------------------------- chaos soak


#: Calm-window invariant bounds (see :func:`run_chaos_soak`).  Single-sample
#: overshoot spikes are normal even fault-free (a freshly dispatched job's
#: setup phase draws demand power before its first cap lands), so the bound
#: is on a rolling mean: fault-free runs stay under ~3 % of target on a 60 s
#: mean, while a containment failure holds a victim's excess indefinitely.
_SOAK_SETTLE = 90.0
_SOAK_ROLL = 60  # samples (≈ seconds) in the rolling overshoot mean
_SOAK_SUSTAINED_EXCESS = 0.05  # fraction of target on the rolling mean
_SOAK_PLAN_SLACK = 0.1  # W of float slack on planned ≤ ceiling

#: Fault kinds whose target job may legitimately end up quarantined during a
#: soak.  Beyond the three rogue-endpoint faults, a crashed endpoint goes
#: silent (its stale self-report diverges from metered truth — quarantining
#: it at metered power is the designed response, not collateral damage) and
#: a corrupt status can ship a fabricated model.
_SOAK_VICTIM_KINDS = _ROGUE_KINDS + ("endpoint-crash", "corrupt-status")


@dataclass
class SoakEpisode:
    """One seeded episode of a chaos soak."""

    seed: int
    duration: float
    num_faults: int
    completed: int
    violations: list = field(default_factory=list)
    quarantines: int = 0
    transitions: int = 0

    @property
    def clean(self) -> bool:
        return not self.violations


@dataclass
class ChaosSoakResult:
    """Outcome of a wall-clock-budgeted randomized fault soak.

    Each episode drives a fresh seeded system under a
    :meth:`~repro.faults.FaultSchedule.random` mix (rogue endpoints, node
    and endpoint crashes, corrupt statuses, meter outages — all finite
    duration) with auditing on, and checks online invariants:

    * **budget conservation** — every budget round's planned power
      (idle + reserved + allocated) stays within its ceiling;
    * **bounded overshoot** — outside scheduled fault windows (plus a
      settle margin), measured facility power stays near target;
    * **drain** — every submitted job completes; no ghost records;
    * **no collateral quarantine** — only injector-targeted jobs are ever
      quarantined.
    """

    episodes: list
    wall_seconds: float
    budget_seconds: float

    @property
    def violations(self) -> list:
        return [v for ep in self.episodes for v in ep.violations]

    @property
    def total_faults(self) -> int:
        return sum(ep.num_faults for ep in self.episodes)

    @property
    def all_clean(self) -> bool:
        return bool(self.episodes) and all(ep.clean for ep in self.episodes)


def _fault_windows(schedule: FaultSchedule, end: float) -> list:
    """(start, stop) spans during/after which the system may be off target."""
    windows = []
    for event in schedule:
        span = getattr(event, "duration", None)
        if span is None:
            span = getattr(event, "down_for", 0.0)
        stop = event.time + span if math.isfinite(span) else end
        windows.append((event.time, min(stop + _SOAK_SETTLE, end)))
    return windows


def _check_episode_invariants(
    *,
    seed: int,
    result: AnorResult,
    rounds: np.ndarray,
    schedule: FaultSchedule,
    target_power: float,
    ghosts: int,
    quarantined: set,
    victims: set,
) -> list:
    violations = []
    for when, ceiling, planned in rounds:
        if planned > ceiling + _SOAK_PLAN_SLACK:
            violations.append(
                f"seed={seed} t={when:.1f} budget-conservation: "
                f"planned {planned:.1f}W > ceiling {ceiling:.1f}W"
            )
    if result.unstarted_jobs:
        violations.append(
            f"seed={seed} drain: {result.unstarted_jobs} jobs never started"
        )
    if ghosts:
        violations.append(f"seed={seed} drain: {ghosts} ghost records")
    collateral = quarantined - victims
    if collateral:
        violations.append(
            f"seed={seed} collateral quarantine: {sorted(collateral)}"
        )
    trace = result.power_trace
    if len(trace) >= _SOAK_ROLL:
        end = float(trace[-1, 0])
        calm = np.isfinite(trace[:, 2])
        for start, stop in _fault_windows(schedule, end):
            calm &= ~((trace[:, 0] >= start) & (trace[:, 0] < stop))
        excess = np.where(calm, trace[:, 2] - trace[:, 1], 0.0)
        kernel = np.ones(_SOAK_ROLL)
        rolled = np.convolve(excess, kernel / _SOAK_ROLL, mode="valid")
        # A rolling window counts only if every sample in it is calm.
        all_calm = np.convolve(calm.astype(float), kernel, mode="valid") == (
            _SOAK_ROLL
        )
        if all_calm.any():
            worst = int(np.argmax(np.where(all_calm, rolled, -np.inf)))
            if rolled[worst] > _SOAK_SUSTAINED_EXCESS * target_power:
                violations.append(
                    f"seed={seed} t={trace[worst, 0]:.1f} sustained "
                    f"calm-window overshoot {rolled[worst]:.1f}W "
                    f"({_SOAK_ROLL}s mean)"
                )
    return violations


def run_chaos_soak(
    *,
    seconds: float = 60.0,
    base_seed: int = 7,
    episode_duration: float = 600.0,
    num_nodes: int = 16,
    target_power: float | None = None,
    max_episodes: int = 1000,
) -> ChaosSoakResult:
    """Soak the trust boundary under randomized faults for ``seconds`` of
    wall-clock time (always at least one episode)."""
    if seconds <= 0:
        raise ValueError(f"seconds must be positive, got {seconds}")
    if episode_duration <= 0:
        raise ValueError(
            f"episode_duration must be positive, got {episode_duration}"
        )
    if target_power is None:
        target_power = num_nodes * 180.0
    start_wall = time.monotonic()
    episodes: list[SoakEpisode] = []
    for i in range(max_episodes):
        if episodes and time.monotonic() - start_wall >= seconds:
            break
        seed = base_seed + i
        schedule = FaultSchedule.random(
            episode_duration,
            seed=seed,
            num_nodes=num_nodes,
            node_crash_rate=1.0 / 600.0,
            endpoint_crash_rate=1.0 / 600.0,
            link_burst_rate=1.0 / 600.0,
            meter_outage_rate=1.0 / 600.0,
            corrupt_status_rate=1.0 / 600.0,
            byzantine_rate=1.0 / 300.0,
            stuck_actuator_rate=1.0 / 300.0,
            meter_drift_rate=1.0 / 300.0,
            node_down_time=120.0,
            rogue_duration=120.0,
        )
        system = _build_static_system(
            duration=episode_duration,
            seed=seed,
            target_power=target_power,
            num_nodes=num_nodes,
            checkpoint_dir=None,
            checkpoint_period=30.0,
            recovery_timeout=60.0,
            fault_schedule=schedule,
            audit_enabled=True,
        )
        result, rounds = _drive(system, max_time=episode_duration + 7200.0)
        # Settle before counting ghosts: goodbyes are still in flight at
        # drain and silently-dead records need dead_job_timeout to pass.
        for _ in range(int(system.config.dead_job_timeout) + 10):
            system.step()
        auditor = system.manager.auditor
        quarantined = {
            t.job_id for t in auditor.transitions if t.new == "quarantined"
        }
        victims = set(
            _parse_rogue_victims(result.fault_log, kinds=_SOAK_VICTIM_KINDS)
        )
        violations = _check_episode_invariants(
            seed=seed,
            result=result,
            rounds=rounds,
            schedule=schedule,
            target_power=target_power,
            ghosts=len(system.manager.jobs),
            quarantined=quarantined,
            victims=victims,
        )
        episodes.append(
            SoakEpisode(
                seed=seed,
                duration=episode_duration,
                num_faults=len(schedule),
                completed=len(result.completed),
                violations=violations,
                quarantines=len(quarantined),
                transitions=len(auditor.transitions),
            )
        )
    return ChaosSoakResult(
        episodes=episodes,
        wall_seconds=time.monotonic() - start_wall,
        budget_seconds=seconds,
    )


def format_soak_table(res: ChaosSoakResult) -> str:
    lines = [
        f"episodes                       : {len(res.episodes)} "
        f"({res.wall_seconds:.0f}s wall, budget {res.budget_seconds:.0f}s)",
        f"faults injected                : {res.total_faults}",
        f"quarantines                    : "
        f"{sum(ep.quarantines for ep in res.episodes)}",
        f"invariant violations           : {len(res.violations)}",
    ]
    for ep in res.episodes:
        lines.append(
            f"  seed={ep.seed}: faults={ep.num_faults} "
            f"completed={ep.completed} quarantines={ep.quarantines} "
            f"{'clean' if ep.clean else 'VIOLATIONS=' + str(len(ep.violations))}"
        )
    lines.extend(f"  {v}" for v in res.violations)
    return "\n".join(lines)


# --------------------------------------------------------------- forecast


@dataclass
class ForecastDrillResult:
    """Reactive vs predictive vs adversarial planning on the Fig. 9 target.

    Three runs of the same workload (seed, schedule, file-backed target):

    * **reactive** — planning off: the seed control plane;
    * **predictive** — schedule forecaster (exact breakpoints), envelope
      active from round one;
    * **adversarial** — inverted-ramp forecaster, deliberately wrong, to
      prove the envelope keeps planned draw inside the reactive bound and
      trips fallback within the configured error window.
    """

    reactive: AnorResult
    predictive: AnorResult
    adversarial: AnorResult
    # per-round accounting rows: (time, ceiling, planned) from _drive
    reactive_rounds: np.ndarray
    predictive_rounds: np.ndarray
    adversarial_rounds: np.ndarray
    reactive_rewrites: int
    predictive_rewrites: int
    adversarial_rewrites: int
    predictive_fallbacks: int
    adversarial_fallbacks: int
    predictive_mae: float
    adversarial_mae: float
    predictive_warm_hits: int
    predictive_held_caps: int
    adversarial_fallback_time: float | None
    duration: float
    warmup: float
    reserve: float
    manager_period: float
    error_bound_watts: float
    error_window: int

    def _errors(self, result: AnorResult) -> np.ndarray:
        # Compare tracking only over the scheduled window: past ``duration``
        # the three runs are all draining a tail of long jobs and the target
        # no longer exercises the planner.
        trace = result.power_trace
        trace = trace[trace[:, 0] <= self.duration]
        return tracking_error_series(
            trace, self.reserve, t_start=self.warmup, smooth_samples=4
        )

    @property
    def reactive_error90(self) -> float:
        return float(np.percentile(self._errors(self.reactive), 90))

    @property
    def predictive_error90(self) -> float:
        return float(np.percentile(self._errors(self.predictive), 90))

    @property
    def adversarial_error90(self) -> float:
        return float(np.percentile(self._errors(self.adversarial), 90))

    @property
    def tracking_ratio(self) -> float:
        """Predictive / reactive 90th-pct tracking error; < 1 is a win."""
        reactive = self.reactive_error90
        return self.predictive_error90 / reactive if reactive > 0 else math.inf

    @staticmethod
    def _violations(rounds: np.ndarray) -> int:
        if rounds.size == 0:
            return 0
        return int(np.sum(rounds[:, 2] > rounds[:, 1] + _SOAK_PLAN_SLACK))

    @property
    def predictive_violations(self) -> int:
        """Rounds where the predictive plan out-spent the budget ceiling."""
        return self._violations(self.predictive_rounds)

    @property
    def adversarial_violations(self) -> int:
        """Rounds where the *wrong* forecast out-spent the budget ceiling."""
        return self._violations(self.adversarial_rounds)

    @property
    def fallback_latency_bound(self) -> float:
        """How quickly the envelope must trip on a persistently wrong
        forecaster: enough rounds to arm the trip gate plus one full error
        window, in seconds."""
        return (self.error_window + 4) * self.manager_period

    @property
    def fallback_latency(self) -> float | None:
        """Seconds from the first scored round to the adversarial trip."""
        if self.adversarial_fallback_time is None:
            return None
        if self.adversarial_rounds.size == 0:
            return None
        return float(self.adversarial_fallback_time - self.adversarial_rounds[0, 0])


def run_forecast_drill(
    *,
    duration: float = 900.0,
    seed: int = 0,
    warmup: float = 120.0,
    manager_period: float = 4.0,
    horizon_rounds: int = 8,
    hysteresis_watts: float = 6.0,
    error_bound_watts: float = 100.0,
    error_window: int = 16,
) -> ForecastDrillResult:
    """Scorecard the predictive planner against the reactive seed on Fig. 9.

    The Fig. 9 regulation signal is materialised through
    :func:`~repro.core.targets.save_target_file` into a genuine file-backed
    :class:`~repro.core.targets.SteppedTarget`, so the schedule forecaster
    consumes *exact* future breakpoints via ``window()`` — the deployment
    shape the paper describes (the manager "periodically reads cluster power
    targets from a file").  The manager runs at the target's own 4 s cadence;
    the reactive gate anchors 1 s off the target grid (first poll fires at
    t=1), so every target step is seen a second late — the lag the plan
    instants eliminate.
    """
    signal = BoundedRandomWalkSignal(
        duration * 2, step=manager_period, seed=seed * 104729 + 7
    )
    regulation = RegulationTarget(
        DEFAULT_AVERAGE_POWER, DEFAULT_RESERVE, signal,
        update_period=manager_period,
    )
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fig9_targets.csv"
        save_target_file(regulation, path, duration=duration * 2, step=manager_period)
        stepped = load_target_file(path)

    def run_one(
        plan_enabled: bool, forecaster: str
    ) -> tuple[AnorResult, np.ndarray, AnorSystem]:
        cfg = AnorConfig(
            num_nodes=16,
            seed=seed,
            manager_period=manager_period,
            telemetry_enabled=True,
            plan_enabled=plan_enabled,
            plan_forecaster=forecaster,
            plan_horizon_rounds=horizon_rounds,
            plan_hysteresis_watts=hysteresis_watts,
            plan_error_bound_watts=error_bound_watts,
            plan_error_window=error_window,
            # Drills start active: shadow-mode promotion is covered by unit
            # tests, and the adversarial arm must *reach* active to prove
            # fallback engages.
            plan_shadow_rounds=0,
        )
        system = build_demand_response_system(
            duration=duration, seed=seed, target_source=stepped, config=cfg
        )
        result, rounds = _drive(system, max_time=duration * 4)
        return result, rounds, system

    reactive_res, reactive_rounds, reactive_sys = run_one(False, "auto")
    predictive_res, predictive_rounds, predictive_sys = run_one(True, "auto")
    adversarial_res, adversarial_rounds, adversarial_sys = run_one(True, "adversarial")
    predictive_planner = predictive_sys.manager.planner
    adversarial_planner = adversarial_sys.manager.planner
    return ForecastDrillResult(
        reactive=reactive_res,
        predictive=predictive_res,
        adversarial=adversarial_res,
        reactive_rounds=reactive_rounds,
        predictive_rounds=predictive_rounds,
        adversarial_rounds=adversarial_rounds,
        reactive_rewrites=reactive_sys.manager.cap_rewrites,
        predictive_rewrites=predictive_sys.manager.cap_rewrites,
        adversarial_rewrites=adversarial_sys.manager.cap_rewrites,
        predictive_fallbacks=predictive_planner.envelope.fallbacks,
        adversarial_fallbacks=adversarial_planner.envelope.fallbacks,
        predictive_mae=predictive_planner.forecaster.mae,
        adversarial_mae=adversarial_planner.forecaster.mae,
        predictive_warm_hits=predictive_planner.warm_hits,
        predictive_held_caps=predictive_planner.hysteresis_holds,
        adversarial_fallback_time=adversarial_planner.envelope.first_fallback_time(),
        duration=duration,
        warmup=warmup,
        reserve=DEFAULT_RESERVE,
        manager_period=manager_period,
        error_bound_watts=error_bound_watts,
        error_window=error_window,
    )


def format_forecast_table(res: ForecastDrillResult) -> str:
    latency = res.fallback_latency
    lines = [
        f"tracking error 90th pct : reactive {100 * res.reactive_error90:5.1f}%  "
        f"predictive {100 * res.predictive_error90:5.1f}%  "
        f"adversarial {100 * res.adversarial_error90:5.1f}%",
        f"tracking ratio          : {res.tracking_ratio:.3f} (predictive/reactive, <1 is a win)",
        f"cap rewrites            : reactive {res.reactive_rewrites}  "
        f"predictive {res.predictive_rewrites}  "
        f"adversarial {res.adversarial_rewrites}",
        f"budget-ceiling breaches : predictive {res.predictive_violations}  "
        f"adversarial {res.adversarial_violations}",
        f"forecast MAE            : predictive {res.predictive_mae:.1f}W  "
        f"adversarial {res.adversarial_mae:.1f}W (bound {res.error_bound_watts:.0f}W)",
        f"plan warm hits          : {res.predictive_warm_hits}  "
        f"(hysteresis held {res.predictive_held_caps} caps)",
        f"fallbacks               : predictive {res.predictive_fallbacks}  "
        f"adversarial {res.adversarial_fallbacks}"
        + (
            f" (first at t={res.adversarial_fallback_time:.0f}s, "
            f"latency {latency:.0f}s ≤ bound {res.fallback_latency_bound:.0f}s)"
            if res.adversarial_fallback_time is not None and latency is not None
            else ""
        ),
        f"jobs completed          : reactive {len(res.reactive.completed)}  "
        f"predictive {len(res.predictive.completed)}  "
        f"adversarial {len(res.adversarial.completed)}",
    ]
    return "\n".join(lines)


# ----------------------------------------------------------------- shed drill


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


def _parse_shed_actions(events) -> list[tuple[float, str, str]]:
    """``(time, job_id, action)`` rows from a manager's event log.

    The manager records every queued preempt/kill as
    ``t=<when> <job>: shed <action> (severity=<level>)``.
    """
    actions: list[tuple[float, str, str]] = []
    for line in events:
        fields = line.split()
        if len(fields) < 4 or not fields[0].startswith("t="):
            continue
        if fields[2] != "shed" or fields[3] not in ("preempt", "kill"):
            continue
        when = float(fields[0][len("t="):])
        actions.append((when, fields[1].rstrip(":"), fields[3]))
    return actions


def _drive_shed(
    system: AnorSystem, *, max_time: float
) -> tuple[AnorResult, np.ndarray]:
    """Run a shed-enabled system to drain, sampling the ladder per round.

    Returns ``(result, shed_rows)`` where shed_rows columns are (time,
    severity value, recovery ceiling in W) — the raw material for the
    ramp-rate and no-flapping claims.  Rows with an infinite ceiling (ladder
    not yet fed) are skipped.
    """
    rows: list[tuple[float, float, float]] = []
    last_time = None
    while (
        system._pending or system._queue or system.cluster.running
    ) and system.cluster.clock.now < max_time:
        system.step()
        mgr = system.manager
        rnd = mgr.last_round if mgr is not None else None
        if rnd is not None and rnd.time != last_time:
            last_time = rnd.time
            shed = mgr.shed
            if shed is not None and math.isfinite(shed.ladder.ceiling):
                rows.append(
                    (rnd.time, float(SEVERITY_VALUES[shed.severity]),
                     shed.ladder.ceiling)
                )
    result = system.run(0.0)
    shed_rows = np.asarray(rows) if rows else np.empty((0, 3))
    return result, shed_rows


@dataclass
class ShedDrillResult:
    """Golden-vs-incident comparison of the graceful-degradation ladder.

    Both runs share the seed, workload, static target, and shed
    configuration; only the facility incidents differ.  The incident arm
    takes three staggered feed events — a :class:`~repro.faults.ThermalDerate`
    (brownout-1), a :class:`~repro.faults.FeederLoss` (brownout-2), and a
    :class:`~repro.faults.DemandResponseEmergency` deep enough for blackstart
    — so every rung of the ladder fires and recovers in one run.
    """

    golden: AnorResult
    incident: AnorResult
    target_power: float
    ramp_watts: float
    manager_period: float
    num_incidents: int
    job_classes: dict[str, str]  # job_id -> shed class, from the schedule
    shed_actions: list  # (time, job_id, action) rows, incident arm
    golden_actions: list
    severity_log: list  # ladder transition lines, incident arm
    golden_severity_log: list
    escalations: int
    golden_escalations: int
    preempts: int
    kills: int
    restores: int
    shed_rows: np.ndarray  # (time, severity, ceiling) per round, incident arm
    injector_quiescent: bool
    incident_counts: dict = field(default_factory=dict)
    ramp_slack_watts: float = 1.0

    @property
    def killed_jobs(self) -> list[str]:
        return sorted({j for _, j, a in self.shed_actions if a == "kill"})

    @property
    def preempted_jobs(self) -> list[str]:
        return sorted({j for _, j, a in self.shed_actions if a == "preempt"})

    @property
    def protected_jobs(self) -> list[str]:
        return sorted(
            j for j, cls in self.job_classes.items() if cls == "protected"
        )

    @property
    def protected_shed(self) -> list[str]:
        """Protected-class jobs that were ever preempted or killed (must be
        empty — the plan table makes this structurally impossible)."""
        touched = {j for _, j, _ in self.shed_actions}
        return sorted(touched & set(self.protected_jobs))

    @property
    def kill_order_violations(self) -> list[str]:
        """Killed jobs outside the preemptible class."""
        return [
            j for j in self.killed_jobs
            if self.job_classes.get(j) != "preemptible"
        ]

    @property
    def preempt_order_violations(self) -> list[str]:
        """Preempted jobs outside the preemptible/checkpointable classes."""
        return [
            j for j in self.preempted_jobs
            if self.job_classes.get(j) not in ("preemptible", "checkpointable")
        ]

    @property
    def max_ramp_step(self) -> float:
        """Largest per-round recovery-ceiling increase, normalised to one
        manager period (rounds the sampler missed widen the allowance)."""
        rows = self.shed_rows
        if len(rows) < 2:
            return 0.0
        worst = 0.0
        for i in range(1, len(rows)):
            gain = rows[i, 2] - rows[i - 1, 2]
            if gain <= 0:
                continue
            periods = max(
                1.0, round((rows[i, 0] - rows[i - 1, 0]) / self.manager_period)
            )
            worst = max(worst, float(gain / periods))
        return worst

    @property
    def ramp_bound(self) -> float:
        return self.ramp_watts + self.ramp_slack_watts

    @property
    def flap_bound(self) -> int:
        """Escalations beyond one per scheduled incident would be flapping."""
        return self.num_incidents + 1

    @property
    def double_shed(self) -> list[str]:
        """Jobs preempted/killed twice inside one episode (must be empty;
        re-shedding a requeued job in a *later* episode is legitimate)."""
        out = []
        seen: dict[str, float] = {}
        episode_len = 400.0  # staggered incidents are > this far apart
        for when, job_id, _ in sorted(self.shed_actions):
            if job_id in seen and when - seen[job_id] < episode_len / 2:
                out.append(job_id)
            seen[job_id] = when
        return sorted(set(out))

    @property
    def preempted_unaccounted(self) -> list[str]:
        """Preempted jobs that neither completed nor were later killed."""
        done = {t.job_id for t in self.incident.completed}
        killed = set(self.killed_jobs)
        return sorted(set(self.preempted_jobs) - done - killed)

    @property
    def protected_incomplete(self) -> list[str]:
        """Protected jobs the incident arm failed to complete."""
        done = {t.job_id for t in self.incident.completed}
        return sorted(set(self.protected_jobs) - done)

    @property
    def golden_clean(self) -> bool:
        """The golden arm must never shed: same knobs, no incidents."""
        return (
            not self.golden_actions
            and not self.golden_severity_log
            and self.golden_escalations == 0
        )

    @property
    def recovered_to_normal(self) -> bool:
        """The last severity sample is back at normal (full recovery)."""
        return bool(len(self.shed_rows)) and self.shed_rows[-1, 1] == 0.0


def run_shed_drill(
    *,
    duration: float = 900.0,
    seed: int = 11,
    num_nodes: int = 16,
    target_power: float | None = None,
    ramp_watts: float = 100.0,
) -> ShedDrillResult:
    """Walk the degradation ladder through all three severities and back.

    Incident arm schedule (against a static target):

    * t=180s: :class:`~repro.faults.ThermalDerate` at 15 % for 120 s —
      brownout-1, preemptible jobs capped to floor;
    * t=420s: :class:`~repro.faults.FeederLoss` at 30 % for 150 s —
      brownout-2, preemptible jobs preempted, checkpointable floored;
    * t=660s: :class:`~repro.faults.DemandResponseEmergency` at 55 % for
      120 s — blackstart, preemptible killed, checkpointable preempted,
      protected floored (never preempted or killed).

    After each window the feed returns and the budget ceiling ramps back at
    ``ramp_watts`` per manager round while severity steps down one rung per
    clear window — the asymmetric hysteresis that prevents flapping.
    """
    if target_power is None:
        target_power = num_nodes * 180.0
    incidents = [
        ThermalDerate(time=180.0, magnitude=0.15, duration=120.0),
        FeederLoss(time=420.0, magnitude=0.30, duration=150.0),
        DemandResponseEmergency(time=660.0, magnitude=0.55, duration=120.0),
    ]
    common = dict(
        duration=duration,
        seed=seed,
        target_power=target_power,
        num_nodes=num_nodes,
        checkpoint_dir=None,
        checkpoint_period=30.0,
        recovery_timeout=30.0,
        shed_enabled=True,
        shed_classes=dict(_SHED_CLASS_MAP),
        shed_ramp_watts=ramp_watts,
    )
    max_time = duration + 7200.0
    golden_sys = _build_static_system(fault_schedule=None, **common)
    golden, _ = _drive_shed(golden_sys, max_time=max_time)
    golden_shed = golden_sys.manager.shed
    golden_actions = _parse_shed_actions(golden_sys.manager.events)
    golden_severity_log = list(golden_shed.ladder.transitions)
    golden_escalations = golden_shed.ladder.escalations

    incident_sys = _build_static_system(
        fault_schedule=FaultSchedule(incidents), **common
    )
    incident, shed_rows = _drive_shed(incident_sys, max_time=max_time)
    shed = incident_sys.manager.shed
    job_classes = {
        req.job_id: _SHED_CLASS_MAP.get(req.type_name, "checkpointable")
        for req in incident_sys.schedule.requests
    }
    quiescent = (
        incident_sys.faults.quiescent if incident_sys.faults is not None else True
    )
    return ShedDrillResult(
        golden=golden,
        incident=incident,
        target_power=target_power,
        ramp_watts=ramp_watts,
        manager_period=incident_sys.config.manager_period,
        num_incidents=len(incidents),
        job_classes=job_classes,
        shed_actions=_parse_shed_actions(incident_sys.manager.events),
        golden_actions=golden_actions,
        severity_log=list(shed.ladder.transitions),
        golden_severity_log=golden_severity_log,
        escalations=shed.ladder.escalations,
        golden_escalations=golden_escalations,
        preempts=shed.preempts,
        kills=shed.kills,
        restores=shed.restores,
        shed_rows=shed_rows,
        injector_quiescent=quiescent,
        incident_counts=dict(incident_sys.telemetry.incident_counts),
    )


def format_shed_table(res: ShedDrillResult) -> str:
    by_class: dict[str, int] = {}
    for cls in res.job_classes.values():
        by_class[cls] = by_class.get(cls, 0) + 1
    lines = [
        f"target (static)                : {res.target_power:.0f}W, "
        f"{res.num_incidents} staggered facility incidents",
        f"jobs by shed class             : "
        + "  ".join(f"{c}={n}" for c, n in sorted(by_class.items())),
        f"ladder escalations             : {res.escalations} "
        f"(flap bound {res.flap_bound}; golden {res.golden_escalations})",
        f"shed actions (incident arm)    : preempts={res.preempts} "
        f"kills={res.kills} restores={res.restores}",
        f"protected jobs shed            : {len(res.protected_shed)}"
        + (f"  {res.protected_shed}" if res.protected_shed else ""),
        f"shed-order violations          : "
        f"kill={len(res.kill_order_violations)} "
        f"preempt={len(res.preempt_order_violations)}",
        f"double-shed in one episode     : {len(res.double_shed)}"
        + (f"  {res.double_shed}" if res.double_shed else ""),
        f"recovery ramp per round        : {res.max_ramp_step:.1f}W "
        f"(bound {res.ramp_bound:.1f}W)",
        f"recovered to normal            : "
        f"{'yes' if res.recovered_to_normal else 'NO'}",
        f"jobs completed golden/incident : "
        f"{len(res.golden.completed)}/{len(res.incident.completed)}",
        f"preempted unaccounted for      : {len(res.preempted_unaccounted)}"
        + (f"  {res.preempted_unaccounted}" if res.preempted_unaccounted else ""),
        f"protected jobs incomplete      : {len(res.protected_incomplete)}"
        + (f"  {res.protected_incomplete}" if res.protected_incomplete else ""),
        f"golden arm shed-free           : "
        f"{'yes' if res.golden_clean else 'NO'}",
        f"fault windows all closed       : "
        f"{'yes' if res.injector_quiescent else 'NO'}",
        "severity transitions (incident arm):",
    ]
    lines.extend(f"  {line}" for line in res.severity_log)
    if res.shed_actions:
        lines.append("shed actions:")
        lines.extend(
            f"  t={when:7.1f} {job_id}: {action} "
            f"({res.job_classes.get(job_id, '?')})"
            for when, job_id, action in res.shed_actions
        )
    if res.incident_counts:
        lines.append("incident summary:")
        lines.extend(summarize_incidents(res.incident_counts))
    return "\n".join(lines)
