"""End-to-end ANOR system: emulated cluster + both control tiers (Figs. 6–10).

:class:`AnorSystem` assembles the pieces the paper deploys on its testbed:

* an :class:`~repro.hwsim.cluster.EmulatedCluster` (the 16 nodes);
* a FCFS job queue fed by a :class:`~repro.workloads.trace.Schedule` (the
  cluster process "reads ... a job submission schedule from files", §4.1);
* one :class:`~repro.core.job_endpoint.JobTierEndpoint` per running job,
  connected to the head node over a latency-modelled TCP link;
* a :class:`~repro.core.cluster_manager.ClusterPowerManager` running the
  chosen budgeter against the chosen power-target source.

Each simulated second: physics advances, agents run a control period,
endpoints run a control period, and (at its own cadence) the cluster manager
re-budgets — the same multi-rate asynchrony §7.2 discusses.
"""

from __future__ import annotations

import importlib
import math
import operator
from bisect import bisect_left, insort
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.budget.base import PowerBudgeter
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.choices import FORECASTER_KINDS, SHED_CLASSES
from repro.core.cluster_manager import ClusterPowerManager
from repro.core.job_endpoint import JobTierEndpoint
from repro.core.round import BudgetRound
from repro.core.targets import ConstantTarget, PowerTargetSource
from repro.core.transport import LinkLedger, TcpLink
from repro.geopm.report import ApplicationTotals, render_report
from repro.hwsim.cluster import EmulatedCluster
from repro.hwsim.job import RunningJob
from repro.modeling.classifier import JobClassifier
from repro.modeling.quadratic import QuadraticPowerModel
from repro.sched.fcfs import FcfsScheduler
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.util.calendar import EventCalendar
from repro.util.clock import PeriodicGate
from repro.util.rng import ensure_rng
from repro.workloads.nas import NAS_TYPES, JobType, P_NODE_MAX, P_NODE_MIN
from repro.workloads.trace import JobRequest, Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.reliable import ReliableLink
    from repro.durable.store import DurableStore
    from repro.faults.injector import FaultInjector
    from repro.faults.schedule import FaultSchedule
    from repro.geopm.tracer import JobTracer
    from repro.telemetry.prometheus import MetricsHTTPServer

__all__ = ["AnorConfig", "AnorResult", "AnorSystem", "precharacterized_models"]

#: One-way latency of a healthy job link — stated, not left to ``TcpLink``,
#: whose own default is 0.05 s.
LINK_LATENCY = 0.0
#: Times a job that lost its nodes goes back in the queue before it is dropped.
MAX_REQUEUES = 3
#: Seconds a leaseless endpoint waits between attempts to re-dial a closed link.
RECONNECT_BACKOFF = 10.0
#: Seconds the node-local watchdog waits before restarting a crashed endpoint.
ENDPOINT_RESTART_DELAY = 30.0
#: The job tier's model before its first fit: 1.3× slower at the node's
#: lowest cap than at its highest.  One value for every endpoint: it is frozen.
DEFAULT_JOB_MODEL = QuadraticPowerModel.from_anchors(1.0, 1.3, P_NODE_MIN, P_NODE_MAX)


def precharacterized_models(
    job_types: dict[str, JobType] | None = None,
) -> dict[str, QuadraticPowerModel]:
    """Idealised precharacterization: each type's true quadratic curve.

    Experiments that need *measured* characterization (with its fit error)
    use :func:`repro.experiments.fig3.characterize_job_types` instead.
    """
    types = job_types if job_types is not None else NAS_TYPES
    return {name: jt.truth for name, jt in types.items()}


@dataclass
class AnorConfig:
    """Tunable knobs of an end-to-end run."""

    num_nodes: int = 16
    seed: int = 0
    tick: float = 1.0
    agent_period: float = 1.0
    endpoint_period: float = 1.0
    manager_period: float = 1.0
    feedback_enabled: bool = True
    retrain_threshold: int = 10
    perf_variation_std: float = 0.0
    run_noise: bool = True
    # When set, write GEOPM-style artifacts per job into this directory:
    # a trace CSV (one row per agent control period) and an Application
    # Totals report on completion (§5.4).
    output_dir: str | None = None
    # Head-node crash recovery (DESIGN.md §4d): when ``checkpoint_dir`` is
    # set, cluster-tier state is checkpointed there every
    # ``checkpoint_period`` seconds with a write-ahead journal in between;
    # a restarted head node replays both and runs a bounded recovery mode
    # (``cluster_manager.RECOVERY_TIMEOUT``) while live jobs re-HELLO.
    # ``None`` disables persistence entirely (zero overhead on every hot path).
    checkpoint_dir: str | None = None
    checkpoint_period: float = 30.0
    # Observability (DESIGN.md §8).  Off by default: the disabled path is a
    # shared null object, so golden traces and the perf harness see zero
    # change.  ``trace_path`` streams the event bus to a JSONL file;
    # ``prometheus_port`` serves /metrics on 127.0.0.1 (0 = ephemeral); each
    # needs ``telemetry_enabled``.
    telemetry_enabled: bool = False
    trace_path: str | None = None
    prometheus_port: int | None = None
    # Partition tolerance and fail-safe enforcement (DESIGN.md §4e).  All
    # off by default: with every knob at its default the control plane is
    # bit-identical to the pre-lease implementation (golden traces pin it).
    # ``lease_ttl`` arms the cap-lease dead-man switch at both the endpoint
    # and agent tiers; leaseless nodes decay toward p_min.
    lease_ttl: float | None = None
    lease_ramp_seconds: float = 30.0
    # Ack/retry reliability for the cap-dispatch and model-report paths
    # (backoffs and the partition threshold: constants of ``core.reliable``).
    reliable_messaging: bool = False
    # Facility breaker: trips after consecutive rounds of measured power
    # above target × (1 + margin) (``breaker.TRIP_ROUNDS``).  None
    # disables.
    breaker_margin: float | None = None
    # Trust boundary for the job tier (DESIGN.md §4f).  Off by default:
    # with ``audit_enabled`` False no auditor is constructed and the control
    # plane is bit-identical to the pre-audit implementation.  The auditor
    # compares out-of-band metered node power against each job's dispatched
    # cap, self-reported meter, and shipped model, and quarantines endpoints
    # that stay non-compliant (thresholds: constants of ``core.audit``).
    audit_enabled: bool = False
    # Predictive planning (DESIGN.md §9).  Off by default: with
    # ``plan_enabled`` False no planner is constructed and the control plane
    # is bit-identical to the reactive implementation (golden traces pin
    # it).  When on, a receding-horizon planner pre-solves the budgeter over
    # the next ``planner.HORIZON_ROUNDS`` manager periods against the chosen
    # forecaster, clamped by the forecast safety envelope;
    # ``plan_shadow_rounds`` is the promotion threshold of the
    # shadow → active → fallback state machine (0 starts active).
    plan_enabled: bool = False
    plan_forecaster: str = "auto"  # auto|schedule|persistence|ar1|adversarial
    plan_hysteresis_watts: float = 8.0
    plan_error_bound_watts: float = 200.0
    plan_shadow_rounds: int = 4
    # Graceful-degradation ladder (DESIGN.md §10).  Off by default: with
    # ``shed_enabled`` False no controller is constructed and the control
    # plane is bit-identical to the pre-shed implementation (golden traces
    # pin it).  When on, feed deficits against nominal demand grade into
    # severity states (normal → brownout-1 → brownout-2 → blackstart, at
    # ``ShedLadder``'s default deficits); each severity sheds power by
    # job class (preemptible / checkpointable / protected) along a fixed
    # escalation chain, and recovery ramps budgets back at
    # ``shed.RAMP_WATTS_PER_ROUND`` per manager round with asymmetric
    # hysteresis.
    shed_enabled: bool = False
    shed_nominal_watts: float | None = None  # None: high-water of observed targets
    # claimed job type -> shed class (unlisted types: ``ShedController``'s default)
    shed_classes: dict | None = None

    def __post_init__(self) -> None:
        """Range-check every knob, naming the offending field.

        Like the fault events' own checks: bad values fail at construction
        with the field name, not deep inside a run.
        """
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        # Counts: an int or a numpy integer, never a float that happens to
        # be whole (``prometheus_port`` may also be None).
        for name in ("num_nodes", "retrain_threshold", "plan_shadow_rounds",
                     "prometheus_port"):
            value = getattr(self, name)
            try:
                if value is not None:
                    operator.index(value)
            except TypeError:
                raise ValueError(f"{name} must be an integer, got {value!r}") from None
        if self.retrain_threshold < 1:
            raise ValueError(f"retrain_threshold must be ≥ 1, got {self.retrain_threshold}")
        for name in ("num_nodes", "tick", "agent_period", "endpoint_period",
                     "manager_period", "checkpoint_period", "plan_error_bound_watts"):
            if (value := getattr(self, name)) <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        for name in ("lease_ramp_seconds", "plan_hysteresis_watts", "plan_shadow_rounds"):
            if (value := getattr(self, name)) < 0:
                raise ValueError(f"{name} must be ≥ 0, got {value}")
        # Optional knobs: None disables, anything else must be meaningful.
        for name in ("lease_ttl", "breaker_margin", "shed_nominal_watts"):
            if (value := getattr(self, name)) is not None and value <= 0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.plan_forecaster not in FORECASTER_KINDS:
            raise ValueError(
                f"plan_forecaster must be one of {FORECASTER_KINDS}, got "
                f"{self.plan_forecaster!r}"
            )
        # With telemetry off there is nothing to write or serve.
        for name in ("trace_path", "prometheus_port"):
            if getattr(self, name) is not None and not self.telemetry_enabled:
                raise ValueError(f"{name} needs telemetry_enabled=True")
        for claimed, cls in (self.shed_classes or {}).items():
            if cls not in SHED_CLASSES:
                raise ValueError(
                    f"shed_classes[{claimed!r}] must be one of {SHED_CLASSES}, "
                    f"got {cls!r}"
                )


@dataclass
class LinkConditions:
    """What the network does to a job link dialled now.

    ``AnorSystem.link_conditions`` starts as a healthy, lossless network;
    the fault injector rewrites it for as
    long as a cluster-wide ``LinkDegradation`` or ``NetworkPartition`` window
    is open, so a link dialled inside the window (a launch, an endpoint
    restart, a re-dial, a head restart) is born degraded or partitioned.
    """

    drop_probability: float = 0.0
    latency_up: float = LINK_LATENCY
    latency_down: float = LINK_LATENCY
    partitioned: bool = False


@dataclass
class FeedConditions:
    """What the facility's two readings are doing now.

    ``AnorSystem.feed_conditions`` starts healthy; the fault injector
    rewrites it for as long as a facility window is open: a
    ``TargetOutage`` takes the target feed down (it reads NaN), feeder
    losses, thermal derates and demand-response emergencies scale it, and a
    ``MeterOutage`` darkens the meter (NaN).  The system reads both through
    it before every manager round (:meth:`AnorSystem._manager_round`).
    """

    target_down: bool = False
    target_scale: float = 1.0
    meter_dark: bool = False


@dataclass
class AnorResult:
    """Outputs of one end-to-end run."""

    completed: list[ApplicationTotals]
    power_trace: np.ndarray  # columns: time, target, measured
    unstarted_jobs: int
    duration: float
    requeued: list[str] = field(default_factory=list)  # jobs requeued by crashes
    warnings: list[str] = field(default_factory=list)
    fault_log: list[str] = field(default_factory=list)
    recovery_log: list[str] = field(default_factory=list)  # head-node crash/restart incidents
    head_crashes: int = 0
    orphaned: list[str] = field(default_factory=list)  # jobs found dead in recovery
    # Partition detections by the reliable-messaging layer (PartitionStart/
    # PartitionEnd records, in detection order; empty without reliable links).
    partition_events: list = field(default_factory=list)

    def slowdowns_by_type(self, reference: dict[str, float]) -> dict[str, list[float]]:
        """Per-type fractional runtime slowdowns vs. ``reference`` seconds."""
        return self._by_type(reference, lambda t, ref: t.runtime / ref - 1.0)

    def qos_by_type(self, t_min: dict[str, float]) -> dict[str, list[float]]:
        """Per-type QoS degradation Q = (T_sojourn − T_min)/T_min (§5.2)."""
        return self._by_type(t_min, lambda t, ref: (t.sojourn - ref) / ref)

    def _by_type(self, reference: dict[str, float], value) -> dict[str, list[float]]:
        """``value(totals, reference)`` of each completed job whose type
        ``reference`` lists, grouped by type."""
        out: dict[str, list[float]] = {}
        for t in self.completed:
            ref = reference.get(t.job_type)
            if ref is not None:
                out.setdefault(t.job_type, []).append(value(t, ref))
        return out


class AnorSystem:
    """A runnable two-tier ANOR deployment over the emulated cluster."""

    def __init__(
        self,
        *,
        budgeter: PowerBudgeter | None = None,
        target_source: PowerTargetSource | None = None,
        classifier: JobClassifier | None = None,
        schedule: Schedule | None = None,
        job_types: dict[str, JobType] | None = None,
        config: AnorConfig | None = None,
        fault_schedule: FaultSchedule | None = None,
        monitors: Sequence[Callable[[BudgetRound], None]] = (),
    ) -> None:
        self.config = config or AnorConfig()
        #: Round observers, handed to every manager this system builds.
        self.monitors = tuple(monitors)
        self.job_types = dict(job_types) if job_types is not None else dict(NAS_TYPES)
        self.budgeter = budgeter or EvenSlowdownBudgeter()
        self.target_source = target_source or ConstantTarget(
            self.config.num_nodes * P_NODE_MAX
        )
        self.classifier = classifier or JobClassifier(
            precharacterized_models(self.job_types)
        )
        self.schedule = schedule or Schedule()
        for req in self.schedule.requests:
            self._check_width(req.job_id, req.nodes)
        self._scheduler = FcfsScheduler()
        self._rng = ensure_rng(self.config.seed)
        # Observability: one Telemetry handle threaded through every tier.
        # Disabled (the default) it is the shared null object — golden traces
        # and the perf harness see literally the same code path as before.
        cfg = self.config
        self.telemetry = (
            Telemetry(trace_path=cfg.trace_path) if cfg.telemetry_enabled else NULL_TELEMETRY
        )
        self.metrics_server: MetricsHTTPServer | None = None
        if cfg.prometheus_port is not None:  # telemetry is on (``__post_init__``)
            # Imported here: http.server loads only for runs that serve.
            from repro.telemetry.prometheus import MetricsHTTPServer

            self.metrics_server = MetricsHTTPServer(
                self.telemetry.registry, cfg.prometheus_port
            )
        # Cluster-wide message/drop totals, posted to by every channel as it
        # works: they must survive links being replaced or garbage-collected.
        self._link_ledger = LinkLedger()
        self.link_conditions = LinkConditions()
        self.feed_conditions = FeedConditions()
        # Every ReliableLink wrapper ever created (partition-event ledger)
        # and per-job backoff state for re-dialling closed links.
        self._reliable_links: list[ReliableLink] = []
        self._link_serial = 0
        self._reconnect_at: dict[str, float] = {}
        if self.telemetry.enabled:
            self._init_metrics()
        self.cluster = EmulatedCluster(
            self.config.num_nodes,
            seed=self._rng,
            perf_variation_std=self.config.perf_variation_std,
            run_noise=self.config.run_noise,
        )
        # The durable store exists before the manager: a manager's round is
        # built once, around the store it journals to.
        self.durable: DurableStore | None = None
        if cfg.checkpoint_dir is not None:
            from repro.durable.store import DurableStore

            self.durable = DurableStore(cfg.checkpoint_dir)
        self.manager: ClusterPowerManager | None = self._build_manager()
        self.endpoints: dict[str, JobTierEndpoint] = {}
        #: Attach serial of each endpoint in ``endpoints``: its place in the
        #: dict's insertion order, read when jobs leave together.
        self._attach_serial: dict[str, int] = {}
        self._attaches = 0
        # FCFS order, kept at insert (``_enqueue``).
        self._queue: list[JobRequest] = []
        self._released_seen = 0  # the part of that log whose endpoints are closed
        #: Tick at which the scheduler saw the queue and cluster as they still
        #: are and started nothing (None once either moved).
        self._declined_at: float | None = None
        self._pending = sorted(
            self.schedule.requests, key=lambda r: (r.submit_time, r.job_id)
        )
        self._trace: list[tuple[float, float, float]] = []
        self._tracers: dict[str, JobTracer] = {}
        if self.config.output_dir is not None:
            Path(self.config.output_dir).mkdir(parents=True, exist_ok=True)
        # Grid-anchored gates: fire on the k·period grid set by their first
        # firing, with no per-fire epsilon drift (see PeriodicGate).
        self._agent_gate = PeriodicGate(self.config.agent_period)
        self._endpoint_gate = PeriodicGate(self.config.endpoint_period)
        self._manager_gate = PeriodicGate(self.config.manager_period)
        self._checkpoint_gate = PeriodicGate(cfg.checkpoint_period)
        # The jobs the head launched and believes running, each as submitted
        # (what a requeue rebuilds it from): the head's own view, which a
        # checkpoint must carry, distinct from the emulator's ground truth.
        # A job leaves it on completion, requeue or drop, or as an orphan.
        self._launched: dict[str, JobRequest] = {}
        # Fault-tolerance state: per-job attempt counts, endpoint restarts
        # pending, and run-level incident and recovery records.
        self._attempts: dict[str, int] = {}
        self._endpoint_restarts: list[tuple[float, str]] = []
        self.requeued: list[str] = []
        self.warnings: list[str] = []
        self.head_crashes = 0
        self.recovery_log: list[str] = []
        self.orphaned: list[str] = []
        # The injector outlives every head crash, so its entry is not part of
        # the list a crash or restart rebuilds.
        self.faults: FaultInjector | None = None
        self._fault_tick = []
        if fault_schedule is not None:
            from repro.faults.injector import FaultInjector

            self.faults = FaultInjector(self, fault_schedule)
            self._fault_tick.append((self._inject_faults, lambda: (self.faults.next_due,)))
        # What a feature's stages import at first use loads here, with the
        # feature, so run() itself imports nothing (DESIGN.md §7, *Startup*):
        # the link wrapper every launch dials, the per-job GEOPM trace, and
        # the head-node lifecycle that checkpoints, faults and restarts drive.
        for module, wanted in (
            ("repro.core.reliable", cfg.reliable_messaging),
            ("repro.geopm.tracer", cfg.output_dir is not None),
            ("repro.durable.recovery", self.durable is not None or self.faults is not None),
        ):
            if wanted:
                importlib.import_module(module)
        self._build_tick()

    def _build_tick(self) -> None:
        """(Re)build the control half of a tick (DESIGN.md §4i), at boot and
        at every head crash and restart; nothing else decides what runs.

        An entry is ``(stage, wakes)``: a bound method taking ``now``, beside
        what says when it can next act — ``wakes()`` yields its gates and the
        instants guarding its ``time <= now`` checks, which is all
        :meth:`_build_calendar` registers.  A stage whose feature is off, or
        whose owner (the head node) is down, is absent.  The manager budgets
        first, then endpoints translate budgets into GEOPM policies, then
        agents apply them — so a decision reaches the MSRs within one tick
        plus link latency, as in a deployment where each hop is a few ms.
        """
        cfg = self.config
        head = self.manager is not None
        self._tick = [entry for entry in (
            head and (self._intake, lambda: [r.submit_time for r in self._pending[:1]]),
            # The watchdog is node-local, but a restarted endpoint's first act
            # is registering with the head node: due restarts wait for it.
            head and (
                self._restart_endpoints,
                lambda: [due for due, _ in self._endpoint_restarts],
            ),
            # Only with the resilience knobs: by default an evicted endpoint
            # stays dark, as it always has (every golden trace pins it).
            head and (cfg.lease_ttl is not None or cfg.reliable_messaging) and (
                self._reconnect_closed,
                lambda: [
                    self._reconnect_at.get(job_id, 0.0)
                    for job_id, endpoint in self.endpoints.items()
                    if endpoint.link.closed
                ],
            ),
            # No instant of its own: a launch becomes possible only when the
            # queue or the cluster changes (``_queue_blocks_stride``).
            head and (self._start_ready, tuple),
            head and (self._manager_round, self._manager_wakes),
            head and self.durable is not None and (
                self._checkpoint, lambda: (self._checkpoint_gate,)
            ),
            (self._step_endpoints, lambda: (self._endpoint_gate,)),
            (self._step_agents, lambda: (self._agent_gate,)),
        ) if entry]

    def _build_manager(self) -> ClusterPowerManager:
        """Construct a cluster-tier manager (initial boot and head restarts).

        Each stage owner is built fresh: breaker state, trust verdicts,
        forecast trust and shed severity are head-local, not checkpointed,
        so a restarted head re-earns them from new evidence (a crash that
        drops one engaged says so, ``durable.recovery.crash_head``).
        """
        cfg = self.config
        breaker = None
        if cfg.breaker_margin is not None:
            from repro.facility.breaker import PowerBreaker

            breaker = PowerBreaker(
                margin=cfg.breaker_margin, telemetry=self.telemetry
            )
        auditor = None
        if cfg.audit_enabled:
            from repro.core.audit import CapComplianceAuditor

            auditor = CapComplianceAuditor(job_meter=self._job_meter, telemetry=self.telemetry)
        planner = None
        if cfg.plan_enabled:
            from repro.plan.envelope import SafetyEnvelope
            from repro.plan.forecast import make_forecaster
            from repro.plan.planner import RecedingHorizonPlanner

            planner = RecedingHorizonPlanner(
                budgeter=self.budgeter,
                forecaster=make_forecaster(cfg.plan_forecaster, self.target_source),
                envelope=SafetyEnvelope(
                    error_bound_watts=cfg.plan_error_bound_watts,
                    promote_rounds=cfg.plan_shadow_rounds,
                ),
                period=cfg.manager_period,
                hysteresis_watts=cfg.plan_hysteresis_watts,
                telemetry=self.telemetry,
            )
        shed = None
        if cfg.shed_enabled:
            from repro.facility.shed import ShedController, ShedLadder

            shed = ShedController(
                ladder=ShedLadder(),
                classes=dict(cfg.shed_classes or {}),
                nominal_watts=cfg.shed_nominal_watts,
                telemetry=self.telemetry,
            )
        return ClusterPowerManager(
            budgeter=self.budgeter,
            classifier=self.classifier,
            total_nodes=self.config.num_nodes,
            use_feedback=self.config.feedback_enabled,
            lease_ttl=cfg.lease_ttl,
            breaker=breaker,
            auditor=auditor,
            journal=self.durable,
            planner=planner,
            shed=shed,
            telemetry=self.telemetry,
            monitors=self.monitors,
        )

    def _job_meter(self, job_id: str) -> tuple[float, tuple[int, ...]] | None:
        """Out-of-band metering for the cap-compliance auditor.

        Reads the cumulative MSR energy counters of the job's nodes — the
        facility's metering plane, which the job-tier endpoint cannot
        influence (and which keeps reporting through a facility-meter
        outage).  Returns None while the job is not on the cluster.
        """
        job = self.cluster.running.get(job_id)
        if job is None:
            return None
        return self.cluster._energy_of(job.at), tuple(job.rows.tolist())

    def _init_metrics(self) -> None:
        """System-level metric handles (enabled runs only)."""
        reg = self.telemetry.registry
        self._mx_power = reg.gauge(
            "anor_measured_power_watts", "emulated facility meter, per tick"
        )
        self._mx_target_now = reg.gauge(
            "anor_target_watts", "cluster power target, per tick"
        )
        self._mx_running = reg.gauge("anor_running_jobs", "jobs on nodes")
        self._mx_queued = reg.gauge("anor_queued_jobs", "jobs waiting in queue")
        self._mx_pending = reg.gauge(
            "anor_pending_jobs", "jobs not yet submitted from the schedule"
        )
        self._mx_completed = reg.gauge("anor_completed_jobs", "jobs finished")
        self._mx_checkpoints = reg.counter(
            "anor_checkpoints_total", "durable checkpoints written"
        )
        self._mx_link_sent = reg.counter(
            "anor_link_messages_sent_total", "messages offered to any link"
        )
        self._mx_link_delivered = reg.counter(
            "anor_link_messages_delivered_total", "messages delivered by any link"
        )
        self._mx_link_reordered = reg.counter(
            "anor_link_messages_reordered_total",
            "deliveries that overtook an earlier send",
        )
        self._mx_link_dropped: dict[str, object] = {}

    def _sample_link_counters(self) -> None:
        """Publish the link ledger as cluster-wide monotone counters: links
        come and go (replaced on reconnect, collected once their job is gone)
        but all post to the one ledger, so ``set_total`` only ever grows."""
        ledger = self._link_ledger
        self._mx_link_sent.set_total(ledger.sent)
        self._mx_link_delivered.set_total(ledger.delivered)
        self._mx_link_reordered.set_total(ledger.reordered)
        for reason, n in ledger.dropped.items():
            counter = self._mx_link_dropped.get(reason)
            if counter is None:
                counter = self.telemetry.registry.counter(
                    "anor_link_messages_dropped_total",
                    "messages lost on any link, by reason",
                    reason=reason,
                )
                self._mx_link_dropped[reason] = counter
            counter.set_total(n)

    def _journal(self, rtype: str, now: float, **data) -> None:
        # The manager journals into the store; its ``_journal`` counts.
        if self.manager is not None:
            self.manager._journal(rtype, now, **data)

    def _report(
        self,
        category: str,
        now: float,
        log: list[str] | None = None,
        text: str | None = None,
        *,
        incident: bool = True,
        **attrs,
    ) -> None:
        """The one emission site for a ``warnings`` / ``recovery_log`` line
        and its bus record — an incident, or a plain event where the system
        is working as designed — so the two streams cannot disagree.  No
        ``log`` where the routine handed over to words the line."""
        if log is not None:
            log.append(f"t={now:.1f}: {text}")
        if self.telemetry.enabled:
            emit = self.telemetry.incident if incident else self.telemetry.event
            emit(category, now, **attrs)

    # ----------------------------------------------------------- job intake

    def submit_now(
        self,
        job_id: str,
        type_name: str,
        *,
        nodes: int | None = None,
        claimed_type: str = "",
    ) -> None:
        """Submit a job immediately (used by the static-budget experiments).

        ``claimed_type`` overrides what the submission metadata tells the
        cluster tier the job is — the per-job misclassification of Figs. 7–8
        ("bt.D.x=is.D.x").  The job still *executes* as ``type_name``.
        """
        width = self.job_types[type_name].nodes  # an unknown type fails here
        req = JobRequest(
            submit_time=self.cluster.clock.now,
            job_id=job_id,
            type_name=type_name,
            nodes=width if nodes is None else nodes,
            claimed_type=claimed_type,
        )
        self._check_width(job_id, req.nodes)
        self._enqueue(req)
        self._journal("job-admit", self.cluster.clock.now, kind="manual", spec=vars(req))

    def _check_width(self, job_id: str, nodes: int) -> None:
        """Refuse a job wider than the cluster: under FCFS it would head the
        queue forever.  Crashed nodes count, since they come back."""
        if nodes > self.config.num_nodes:
            raise ValueError(
                f"job {job_id} needs {nodes} nodes; the cluster has {self.config.num_nodes}"
            )

    def _intake(self, now: float) -> None:
        while self._pending and self._pending[0].submit_time <= now:
            req = self._pending.pop(0)
            self._enqueue(req)
            self._journal("job-admit", now, kind="queue", spec=vars(req))

    def _enqueue(self, req: JobRequest) -> None:
        """Queue a job (first submission or requeue) in FCFS order.

        A requeued job keeps its original submit time, so it goes back to
        the head of the line (it already waited once); among equal submit
        times the earlier arrival stays first.
        """
        insort(self._queue, req, key=operator.attrgetter("submit_time"))
        self._declined_at = None

    def _start_ready(self, now: float) -> None:
        """Start the queued jobs FCFS would start."""
        if not self._queue or self.manager.admission_held:
            return
        chosen = self._scheduler.select(self._queue, self.cluster.idle_count())
        if not chosen:
            self._declined_at = now
            return
        for req in chosen:
            self._launch(req)
        del self._queue[: len(chosen)]

    def _launch(self, req: JobRequest) -> None:
        job_type = self.job_types[req.type_name].with_nodes(req.nodes)
        job = self.cluster.start_job(req.job_id, job_type, submit_time=req.submit_time)
        self._launched[req.job_id] = req
        attempt = self._attempts.setdefault(req.job_id, 1)
        self._journal(
            "job-admit", self.cluster.clock.now, kind="launch",
            spec=vars(req), attempt=attempt,
        )
        self._attach_endpoint(job, req.claimed_type)
        if self.config.output_dir is not None:
            from repro.geopm.tracer import JobTracer

            self._tracers[req.job_id] = JobTracer(
                Path(self.config.output_dir) / f"{req.job_id}.trace.csv",
                job_id=req.job_id,
            )

    def _make_link(self) -> TcpLink:
        net = self.link_conditions
        link = TcpLink(
            drop_probability=net.drop_probability,
            latency_up=net.latency_up,
            latency_down=net.latency_down,
            seed=self._rng,
            ledger=self._link_ledger,
        )
        link.down.partitioned = link.up.partitioned = net.partitioned
        return link

    def _dial(self):
        """One fresh raw link, registered with the manager; returns the
        handle the job tier holds.

        Without reliable messaging both tiers share the raw :class:`TcpLink`
        (the pre-existing code path, bit-identical).  With it, each tier
        gets its own :class:`ReliableLink` side over the shared raw link.
        """
        raw = self._make_link()
        if not self.config.reliable_messaging:
            self.manager.register_link(raw)
            return raw
        from repro.core.reliable import ReliableLink

        self._link_serial += 1
        manager_side = ReliableLink(
            raw, "cluster", seed=self._rng,
            name=f"link{self._link_serial}:down", telemetry=self.telemetry,
        )
        endpoint_side = ReliableLink(
            raw, "job", seed=self._rng,
            name=f"link{self._link_serial}:up", telemetry=self.telemetry,
        )
        self._reliable_links.extend((manager_side, endpoint_side))
        self.manager.register_link(manager_side)
        return endpoint_side

    def _attach_endpoint(
        self,
        job: RunningJob,
        claimed_type: str,
        *,
        warm_model: QuadraticPowerModel | None = None,
        warm_r2: float | None = None,
    ) -> None:
        """Connect a (possibly fresh) job-tier endpoint for a running job."""
        cfg = self.config
        if job.job_id not in self.endpoints:
            self._attaches += 1
            self._attach_serial[job.job_id] = self._attaches
        self.endpoints[job.job_id] = JobTierEndpoint(
            job_id=job.job_id,
            claimed_type=claimed_type,
            nodes=job.job_type.nodes,
            geopm_endpoint=job.endpoint,
            link=self._dial(),
            default_model=DEFAULT_JOB_MODEL,
            feedback_enabled=cfg.feedback_enabled,
            retrain_threshold=cfg.retrain_threshold,
            warm_model=warm_model,
            warm_r2=warm_r2,
            lease_ttl=cfg.lease_ttl,
            lease_ramp_seconds=cfg.lease_ramp_seconds,
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------- failures

    def crash_node(self, node_id: int, now: float | None = None) -> str | None:
        """Crash one emulated node; kill, and maybe requeue, its job.

        The job's endpoint dies with it — silently, no goodbye — so the
        cluster manager only learns of the death through its heartbeat
        timeouts.  Returns the killed job id, if any.
        """
        if now is None:
            now = self.cluster.clock.now
        killed = self.cluster.fail_node(node_id)
        if killed is None:
            return None
        self._detach_endpoint(killed)
        if self.manager is None:
            # No head node to notice, requeue, or journal anything: the job
            # just dies.  Post-restart reconciliation finds it missing (no
            # re-HELLO) and requeues it from the checkpointed spec.
            self._report(
                "node-crash",
                now,
                self.warnings,
                f"node {node_id} crashed while head node down, job {killed} killed",
                node=node_id,
                job_id=killed,
            )
            return killed
        self._report("node-crash", now, node=node_id, job_id=killed)
        self._requeue_or_drop(
            killed,
            now,
            self._launched.pop(killed, None),
            self.warnings,
            f"node {node_id} crashed, job {killed} killed and requeued",
            f"node {node_id} crashed, job {killed} killed (not requeued)",
            kind="killed",
        )
        return killed

    def _detach_endpoint(self, job_id: str) -> None:
        """Forget the endpoint, attach serial, pending restart and tracer of
        a job that was just killed."""
        self.endpoints.pop(job_id, None)
        self._attach_serial.pop(job_id, None)
        self._endpoint_restarts = [
            r for r in self._endpoint_restarts if r[1] != job_id
        ]
        tracer = self._tracers.pop(job_id, None)
        if tracer is not None:
            tracer.close()

    def _requeue_or_drop(
        self,
        job_id: str,
        now: float,
        spec: JobRequest | None,
        log: list[str],
        requeued: str,
        dropped: str,
        *,
        kind: str,
        allowed: bool = True,
    ) -> None:
        """A job the head believed running is gone, ``kind`` says how (node
        crash: ``killed``; ``shed``; died during a head outage: ``lost``):
        back in the queue from its submission spec while it has attempts left
        and ``allowed``, else dropped.  One ``log`` line, one bus record and
        one journal record either way.  ``spec`` is what the caller popped
        from the launched jobs."""
        attempts = self._attempts.get(job_id, 1)
        if allowed and spec is not None and attempts <= MAX_REQUEUES:
            self._attempts[job_id] = attempt = attempts + 1
            self._enqueue(spec)
            self.requeued.append(job_id)
            self._report(
                "job-requeue", now, log, requeued, incident=False,
                job_id=job_id, attempt=attempt,
            )
            self._journal(
                "job-admit",
                now,
                kind="requeue",
                spec=vars(spec),
                attempt=attempt,
            )
        else:
            self._report(
                "job-drop", now, log, dropped, incident=False,
                job_id=job_id, kind=kind, attempts=attempts,
            )
            self._journal("job-evict", now, kind=kind, job_id=job_id)

    def _enforce(self, now: float) -> None:
        """Carry out what the manager's rounds handed back.

        The manager only *decides* — it has no handle on the cluster
        emulator — so the framework is the enforcement arm, the role the
        resource-manager plugin plays on a real head node.
        """
        actions, self.manager.enforcement = self.manager.enforcement, []
        for action, job_id in actions:
            if action == "orphan":
                from repro.durable.recovery import reconcile_orphan

                reconcile_orphan(self, job_id, now)
            else:
                self._shed_job(job_id, action, now)

    def _shed_job(self, job_id: str, action: str, now: float) -> None:
        """Preempted jobs requeue from their checkpointed submission spec
        (they restart once the ladder returns to normal); killed jobs are
        evicted for good."""
        if job_id not in self.cluster.running:
            # Completed (or crashed) between the shed decision and now.
            return
        self.cluster.kill_job(job_id)
        self._declined_at = None  # nodes came free after the scheduler looked
        self._detach_endpoint(job_id)
        self._requeue_or_drop(
            job_id,
            now,
            self._launched.pop(job_id, None),
            self.warnings,
            f"job {job_id} preempted by power shed (checkpointed and requeued)",
            f"job {job_id} killed by power shed",
            kind="shed",
            allowed=action == "preempt",
        )

    def crash_endpoint(self, job_id: str, now: float | None = None) -> bool:
        """Kill a job's endpoint process; the job itself keeps running.

        No goodbye is sent — the manager sees the job go silent, budgets it
        conservatively, and eventually evicts it.  The node-local watchdog
        re-attaches a fresh endpoint (new link, new hello)
        ``ENDPOINT_RESTART_DELAY`` seconds later.
        """
        if now is None:
            now = self.cluster.clock.now
        if self.endpoints.pop(job_id, None) is None:
            return False
        del self._attach_serial[job_id]
        self._report(
            "endpoint-crash", now, self.warnings,
            f"endpoint for job {job_id} crashed", job_id=job_id,
        )
        self._endpoint_restarts.append((now + ENDPOINT_RESTART_DELAY, job_id))
        return True

    def crash_head_node(self, now: float | None = None) -> bool:
        """Kill the cluster-tier process: queue, budgeter state, models — gone.

        Compute-node-side state survives (running jobs, their endpoints and
        modelers, the node-local watchdog) but every link to the head is
        dead: endpoints keep transmitting into the void until
        :meth:`restart_head_node` reconnects them.  What comes back at
        restart depends entirely on the durable store.
        """
        if self.manager is None:
            return False
        from repro.durable.recovery import crash_head

        crash_head(self, self.cluster.clock.now if now is None else now)
        return True

    def restart_head_node(self, now: float | None = None) -> bool:
        """Supervised head-node restart: replay durable state, enter recovery.

        With a checkpoint directory configured, the restarted manager loads
        the last checkpoint, folds in the journal tail, restores the queue /
        running-set / budget accounting / models / target-hold / gate
        phases, and runs a bounded recovery mode while live endpoints
        re-HELLO over fresh links.  A missing store, an unknown schema
        version, or a failed checksum all degrade to a *cold start* with an
        incident record — never a guess at partial state.
        """
        if self.manager is not None:
            return False
        from repro.durable.recovery import restart_head

        restart_head(self, self.cluster.clock.now if now is None else now)
        return True

    def _reconnect_closed(self, now: float) -> None:
        """Re-dial links the manager closed on a still-alive endpoint.

        A partition longer than ``DEAD_JOB_TIMEOUT`` gets the job evicted
        and its link closed; when the network heals, the endpoint must
        re-HELLO over a fresh link or it stays degraded forever.
        """
        for job_id in sorted(self.endpoints):
            endpoint = self.endpoints[job_id]
            if not endpoint.link.closed:
                continue
            if now < self._reconnect_at.get(job_id, 0.0):
                continue
            self._reconnect_at[job_id] = now + RECONNECT_BACKOFF
            endpoint.reconnect(self._dial())
            self._report(
                "link-redial", now, self.warnings,
                f"job {job_id} re-dialled its closed link", job_id=job_id,
            )

    def _restart_endpoints(self, now: float) -> None:
        due = [r for r in self._endpoint_restarts if r[0] <= now]
        if not due:
            return
        self._endpoint_restarts = [r for r in self._endpoint_restarts if r[0] > now]
        for _, job_id in due:
            job = self.cluster.running.get(job_id)
            if job is None or job_id in self.endpoints:
                # The job finished (or was requeued) while the endpoint was
                # down, or another path already re-attached one.  Losing the
                # restart is correct; losing the *record* of it is not.
                reason = (
                    "job no longer running"
                    if job is None
                    else "endpoint already attached"
                )
                self._report(
                    "restart-cancelled",
                    now,
                    self.warnings,
                    f"restart-cancelled for job {job_id} ({reason})",
                    job_id=job_id,
                    reason=reason,
                )
                continue
            spec = self._launched[job_id]  # on record since its launch
            # Warm restart: hand back the last model the cluster tier
            # validated for this job (linked, or restored from the checkpoint),
            # so the fresh endpoint does not re-fit from zero.
            warm_model = warm_r2 = None
            known = self.manager.jobs.get(job_id)
            if known is not None and known.online_model is not None:
                warm_model, warm_r2 = known.online_model, known.online_r2
            self._attach_endpoint(
                job, spec.claimed_type,
                warm_model=warm_model, warm_r2=warm_r2,
            )
            self._report(
                "endpoint-restart",
                now,
                self.warnings,
                f"endpoint for job {job_id} restarted",
                incident=False,
                job_id=job_id,
                warm=warm_model is not None,
            )

    # ---------------------------------------------------------- tick stages

    def _inject_faults(self, now: float) -> None:
        self.faults.tick(now)

    def _manager_round(self, now: float) -> None:
        """Poll the gate first (grid bookkeeping), then consume any plan
        instants due this tick: when an active plan knows the target steps
        *between* gate firings, the manager budgets at the step instant
        *instead of* the next grid round — the gate re-anchors onto the
        breakpoint so rounds stay one-per-period rather than doubling.
        Planner off ⇒ the extra check is a constant False and the cadence is
        exactly the gate's."""
        manager_due = self._manager_gate.due(now)
        if self.manager.plan_instant_due(now) and not manager_due:
            self._manager_gate.restore(now, 1)
            manager_due = True
        if manager_due:
            feed = self.feed_conditions
            self.manager.step(
                now,
                math.nan if feed.target_down else self.read_target(now) * feed.target_scale,
                math.nan if feed.meter_dark else self.cluster.measured_power,
            )
            self._enforce(now)

    def read_target(self, now: float) -> float:
        """The target source at ``now`` (W); NaN when the source raises,
        which the manager's hold-last-good filter rides out."""
        try:
            return float(self.target_source.target(now))
        except Exception:
            return math.nan

    def _manager_wakes(self) -> tuple:
        instant = self.manager.next_plan_instant()
        return (self._manager_gate,) if instant is None else (self._manager_gate, instant)

    def _checkpoint(self, now: float) -> None:
        if self._checkpoint_gate.due(now):
            # What the journal folded, stamped with the time and gate phases.
            self.durable.save_checkpoint({"state": {
                **self.durable.state,
                "now": float(now),
                "gates": {
                    "manager": list(self._manager_gate.phase),
                    "checkpoint": list(self._checkpoint_gate.phase),
                },
            }})
            if self.telemetry.enabled:
                self._mx_checkpoints.inc()
                self.telemetry.event("checkpoint", now)

    def _step_endpoints(self, now: float) -> None:
        if self._endpoint_gate.due(now):
            for endpoint in self.endpoints.values():
                endpoint.step(now)

    def _step_agents(self, now: float) -> None:
        if self._agent_gate.due(now):
            self.cluster.agents.step(now)
            running = self.cluster.running
            for job_id, tracer in self._tracers.items():
                job = running.get(job_id)
                if job is not None:
                    tracer.record(self.cluster.agents.sample(job.root))

    # -------------------------------------------------------------- running

    def step(self) -> None:
        """Advance the whole system by one tick.

        While the head node is down, everything *it* does pauses — intake,
        scheduling, budgeting, checkpoints, endpoint-watchdog restarts — but
        the compute side keeps going: physics, agents, endpoints (shouting
        into dead links), fault events, and job completions.
        """
        self._advance(None)

    def _advance(self, limits: tuple[float, float | None, bool, float] | None) -> None:
        """One loop body: the control plane for the tick now due, then one
        physics call covering that tick and every control-free tick after it.

        ``limits`` is :meth:`run`'s ``(start, duration, until_idle, max_time)``;
        None never asks the calendar, so the body covers the due tick alone.
        Everything per-tick stepping would have produced — trace rows,
        telemetry samples, RNG consumption, float accumulations — is
        reproduced bit for bit; ticks are never skipped, only batched.
        """
        cfg = self.config
        clock = self.cluster.clock
        now = clock.advance(cfg.tick)
        for stage, _ in self._fault_tick:
            stage(now)
        # Read only now: a head crash or restart the injector fired at this
        # tick has already rebuilt the list.
        for stage, _ in self._tick:
            stage(now)
        free = self._free_ticks(now, limits) if limits is not None else ()
        if len(free):
            times = np.concatenate(([now], free))
            ticks, totals = self.cluster.advance_stride(times, cfg.tick)
            times, totals = times[:ticks].tolist(), totals.tolist()
            clock.advance_to(times[-1])
            # Arrivals the screen let into the window (``_free_ticks``; only
            # with the head up, as intake is its stage) are admitted at their
            # own ticks, as per-tick intake would have.
            pending = self._pending
            while self.manager is not None and pending and pending[0].submit_time <= times[-1]:
                self._intake(times[bisect_left(times, pending[0].submit_time)])
        else:
            times, totals = [now], [self.cluster.advance(cfg.tick)]
        for t, measured in zip(times, totals):
            self._trace.append((t, self.read_target(t), measured))
        if self.telemetry.enabled:
            # A gauge holds its latest sample only — the window's final tick,
            # the one completions land on — and no message moves on a
            # control-free tick, so one sample of each covers the window.
            self._mx_power.set(totals[-1])
            self._mx_target_now.set(self._trace[-1][1])
            self._mx_running.set(len(self.cluster.running))
            self._mx_queued.set(len(self._queue))
            self._mx_pending.set(len(self._pending))
            self._mx_completed.set(len(self.cluster.completed))
            self._sample_link_counters()
        self._finish_completed(times[-1])

    def _finish_completed(self, now: float) -> None:
        """Close the endpoints of jobs that left the cluster since the last
        loop body, so the manager forgets them."""
        released = self.cluster.released
        fresh, self._released_seen = released[self._released_seen :], len(released)
        running = self.cluster.running
        done_ids = [jid for jid in fresh if jid in self.endpoints and jid not in running]
        serial = self._attach_serial
        if len(done_ids) > 1:  # closed in the order the endpoints were attached
            done_ids = sorted(set(done_ids), key=serial.__getitem__)
        for jid in done_ids:
            self.endpoints[jid].close(now)
            # Flush the goodbye promptly so budgets stop counting this job.
            self.endpoints.pop(jid)
            del serial[jid]
            # Head-side bookkeeping; with the head down, post-restart
            # reconciliation discovers the completion instead.
            if self.manager is not None and self._launched.pop(jid, None) is not None:
                self._journal("job-evict", now, kind="complete", job_id=jid)
            tracer = self._tracers.pop(jid, None)
            if tracer is not None:
                tracer.close()
            if self.config.output_dir is not None:
                totals = next(
                    (t for t in reversed(self.cluster.completed) if t.job_id == jid),
                    None,
                )
                if totals is None:
                    # Job left the cluster without completing (e.g. killed by
                    # a fault) — there is nothing to report on.
                    self._report(
                        "report-skipped", now, self.warnings,
                        f"no completion totals for job {jid}; report skipped",
                        incident=False, job_id=jid,
                    )
                    continue
                report_path = Path(self.config.output_dir) / f"{jid}.report"
                report_path.write_text(render_report(totals))

    # ------------------------------------------------- event-calendar stepping
    #
    # Stride safety (DESIGN.md §7): every stage of the tick acts only when one
    # of its own ``wakes`` fires, and the calendar registers exactly those, so
    # across the free ticks after a due tick every input to the physics is
    # constant.  A job completion, the one change no stage makes, truncates
    # the window inside the hardware emulator (at the due tick itself, if it
    # lands there), and it is the only thing that can change a scheduler
    # decision mid-window.  The one stage act a window may cover is intake of
    # an arrival the scheduler would not start (``_arrivals_wait``), which
    # ``_advance`` replays at the arrival's own tick after the physics call.

    #: Upper bound on ticks per window: keeps the per-window numpy arrays
    #: small enough to stay cache-friendly without limiting throughput.
    _MAX_STRIDE = 1024

    def _build_calendar(self, skip: Callable[[float], None] | None = None) -> EventCalendar:
        """Register what every stage of the tick but ``skip`` says could wake it."""
        cal = EventCalendar()
        for stage, wakes in self._fault_tick + self._tick:
            if stage == skip:
                continue
            for wake in wakes():
                if isinstance(wake, PeriodicGate):
                    cal.add_gate(wake)
                else:
                    cal.add_instant(wake)
        return cal

    def _queue_blocks_stride(self, now: float) -> bool:
        """Could the scheduler start a queued job on an upcoming free tick?

        Not with the head down.  Otherwise a non-empty queue blocks striding
        unless one round on the exact view ``_start_ready`` would build comes
        back empty — this tick's own ``_start_ready`` round if nothing has
        moved since, else a probe — in which case it stays empty until
        cluster state changes, which only happens at an event or a
        completion (window boundaries).
        """
        if not self._queue or self.manager is None:
            return False
        if self.manager.admission_held:
            # ``_start_ready`` is inert while the hold lasts, and it only
            # changes inside manager rounds — gate events, so window
            # boundaries.  The queue cannot act mid-window.
            return False
        if self._declined_at == now:
            return False
        return bool(self._scheduler.select(self._queue, self.cluster.idle_count()))

    def _arrivals_wait(self) -> bool:
        """Will the scheduler start none of the arrivals a window may cover
        (DESIGN.md §7, stride safety 5)?  Asked once the queue is known not
        to block the window, so a queue that is there was declined or is
        held, and every arrival sorts behind it: the head blocks it."""
        return bool(self._queue or self.manager.admission_held)

    def _free_ticks(
        self, now: float, limits: tuple[float, float | None, bool, float]
    ) -> np.ndarray | tuple:
        """Instants of the control-free ticks after ``now``, the tick whose
        control plane just ran, that one physics call may cover with it.

        Cheap scalar screening first (no arrays on the common next-event-is-
        imminent path), then the exact elementwise truncation: every calendar
        source declines each returned instant (an arrival only if the
        scheduler would start it), the scheduler has nothing to start, and
        :meth:`run` (``limits``) would not have stopped before it.

        The first screen reads the endpoint and agent gates alone, which are
        in the tick whatever the head is doing.  The calendar's horizon is a
        minimum over a superset of them, so where theirs leaves no free tick,
        :meth:`_calendar_ticks` returns none either (DESIGN.md §7,
        *The gate pre-screen*); at 1 s periods every tick ends here, with no
        calendar built.
        """
        edge = min(
            self._endpoint_gate.next_due - self._endpoint_gate.eps,
            self._agent_gate.next_due - self._agent_gate.eps,
        )
        if (edge - now) / self.config.tick < 1:
            return ()
        return self._calendar_ticks(now, limits)

    def _calendar_ticks(
        self, now: float, limits: tuple[float, float | None, bool, float]
    ) -> np.ndarray | tuple:
        """:meth:`_free_ticks` from every stage's wakes."""
        start, duration, until_idle, max_time = limits
        tick = self.config.tick
        cal = self._build_calendar(skip=self._intake)
        bound = cal.horizon()
        if math.isinf(bound):
            quick = self._MAX_STRIDE if bound > 0 else 0
        else:
            quick = int((bound - now) / tick)
        # Run-loop break conditions also bound the window (scalar estimate;
        # the exact predicates are replayed below).  The duration cap is
        # suppressed only while ``until_idle`` still has work to drain; work
        # can only *vanish* at a completion, which ends the window anyway.
        duration_caps = duration is not None and not (until_idle and self.has_work)
        if duration_caps:
            quick = min(quick, int((start + duration - now) / tick) + 1)
        quick = min(quick, int((start + max_time - now) / tick) + 1)
        # The scheduler probe may walk the whole queue, so it runs only after
        # the cheap scalar screens say a free tick is even possible.
        if quick < 1 or not self.cluster.stride_ready() or self._queue_blocks_stride(now):
            return ()
        # The next arrival ends the window unless the scheduler would start
        # nothing there; only one due before every other wake is screened.
        # The intake stage is in the tick exactly while the head is up.
        if self.manager is not None and self._pending:
            arrival = self._pending[0].submit_time
            if arrival >= bound or not self._arrivals_wait():
                if arrival <= now + tick:
                    return ()
                cal.add_instant(arrival)
                quick = min(quick, int((arrival - now) / tick))
        times = self.cluster.clock.tick_times(min(quick + 1, self._MAX_STRIDE - 1), tick)
        times = times[: cal.free_ticks(times)]
        # Replay the run() break predicates at the instants the loop would
        # check them: before each free tick the clock reads the tick before.
        elapsed = np.concatenate(([now], times[:-1])) - start
        ok = elapsed < max_time
        if duration_caps:
            ok &= elapsed < duration
        return times[: np.count_nonzero(ok)]

    @property
    def has_work(self) -> bool:
        """True while any job is yet to arrive, queued, or running."""
        return bool(self._pending or self._queue or self.cluster.running)

    def run(
        self,
        duration: float | None = None,
        *,
        until_idle: bool = False,
        max_time: float = 86_400.0,
    ) -> AnorResult:
        """Run for ``duration`` seconds, or until all submitted work drains.

        ``until_idle`` keeps running (past ``duration``) until the queue and
        the cluster are empty, bounded by ``max_time`` as a safety stop.
        Each pass of the loop body asks the event calendar how many
        control-free ticks its one physics call may cover (DESIGN.md §7);
        :meth:`step` is the same body covering the due tick alone.
        """
        if duration is None and not until_idle:
            raise ValueError("need a duration or until_idle=True")
        start = self.cluster.clock.now
        limits = (start, duration, until_idle, max_time)
        while True:
            elapsed = self.cluster.clock.now - start
            if elapsed >= max_time:
                break
            # Past the duration (or none given): go on only to drain.
            if (duration is None or elapsed >= duration) and not (
                until_idle and self.has_work
            ):
                break
            self._advance(limits)
        trace = np.asarray(self._trace) if self._trace else np.empty((0, 3))
        # Durable sinks must not hold back records a consumer reads right
        # after run() returns; the system stays usable (run can be resumed).
        self.telemetry.flush()
        return AnorResult(
            completed=list(self.cluster.completed),
            power_trace=trace,
            unstarted_jobs=len(self._pending) + len(self._queue),
            duration=self.cluster.clock.now - start,
            requeued=list(self.requeued),
            warnings=list(self.warnings),
            fault_log=self.faults.log_lines() if self.faults is not None else [],
            recovery_log=list(self.recovery_log),
            head_crashes=self.head_crashes,
            orphaned=list(self.orphaned),
            partition_events=sorted(
                (f for rl in self._reliable_links for f in rl.faults),
                key=lambda f: (f.time, f.link, type(f).__name__),
            ),
        )
