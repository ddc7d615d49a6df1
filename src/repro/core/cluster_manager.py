"""The cluster-tier power manager (paper §4, §4.4).

A single process on the head node: it reads the time-varying cluster power
target, listens to each job's endpoint over its TCP link, chooses per-job
power caps with a pluggable budgeter, and sends each job its new cap.  Job
power-performance models come from three places, in priority order:

1. the job tier's online fit, when feedback is enabled and a fit arrived
   (this is what lets the "adjusted" policy of Fig. 10 recover from
   misclassification);
2. the precharacterized model of the job's classified type — possibly wrong,
   when the classifier misclassifies, which is the experiment;
3. a default-model policy for unknown types (§4.4.2).

The manager is also the component that must survive a faulty cluster: every
inbound message refreshes a per-job heartbeat, a job whose messages go stale
is budgeted conservatively from its believed model, a job silent past the
dead-job timeout is evicted and its link garbage-collected (so a dropped
goodbye cannot leak a ghost :class:`JobRecord`), inbound model coefficients
are strictly validated (one NaN must not poison the budgeter's bisection),
and meter/target faults degrade gracefully (skip the sample / hold the last
good target with bounded decay).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from typing import Callable

from repro.budget.base import BudgetAllocation, JobBudgetRequest, PowerBudgeter
from repro.core.audit import CapComplianceAuditor
from repro.core.messages import BudgetMessage, GoodbyeMessage, HelloMessage, StatusMessage
from repro.core.targets import HoldLastGoodTarget, PowerTargetSource
from repro.core.transport import TcpLink
from repro.durable.journal import Journal
from repro.durable.recovery import RecoveredJob, recovered_jobs_from_state
from repro.facility.breaker import PowerBreaker
from repro.facility.shed import ShedController
from repro.modeling.classifier import JobClassifier
from repro.modeling.quadratic import QuadraticPowerModel
from repro.plan.envelope import PLAN_FALLBACK
from repro.plan.planner import RecedingHorizonPlanner
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = ["JobRecord", "BudgetRound", "ClusterPowerManager"]


@dataclass
class JobRecord:
    """Everything the cluster tier tracks about one connected job."""

    job_id: str
    claimed_type: str
    nodes: int
    link: TcpLink
    believed_model: QuadraticPowerModel
    believed_p_max: float
    online_model: QuadraticPowerModel | None = None
    online_r2: float | None = None
    last_status: StatusMessage | None = None
    caps_sent: int = 0
    # Heartbeat state: wall-clock (manager-side) time any message last arrived
    # over this job's link, and the last cap the manager sent it.  A silent
    # job's believed draw is bounded by ``last_cap`` — the manager cannot
    # assume anything lower until it hears from the job again.
    last_heard: float = 0.0
    last_cap: float | None = None

    @property
    def active_model(self) -> QuadraticPowerModel:
        """Online fit when available, else the believed precharacterized model."""
        return self.online_model if self.online_model is not None else self.believed_model


@dataclass
class TrackingSample:
    """One power-tracking observation: what we wanted vs. what we measured."""

    time: float
    target: float
    measured: float


@dataclass(frozen=True)
class BudgetRound:
    """Accounting for one budgeting round (observability + invariant tests).

    ``idle_power + reserved + allocated`` is the manager's planned cluster
    draw; it never exceeds ``max(target + correction, floor)`` where
    ``floor`` is the platform's enforceable minimum for the same occupancy.
    """

    time: float
    target: float
    correction: float
    idle_power: float  # watts reserved for idle nodes
    reserved: float  # watts reserved for dormant/stale/recovering jobs
    allocated: float  # watts the budgeter allocated to active jobs
    floor: float  # idle_power + reserved + active p_min floor
    stale_jobs: int
    dormant_jobs: int
    active_jobs: int
    # Jobs restored from a checkpoint after a head-node restart that have not
    # re-HELLOed yet: budgeted conservatively (their last cap stays reserved).
    recovering_jobs: int = 0
    # Jobs the cap-compliance auditor has quarantined (DESIGN.md §4f):
    # budgeted at their metered envelope, counted inside ``reserved``.
    quarantined_jobs: int = 0


@dataclass
class ClusterPowerManager:
    """Head-node manager: budget computation and message plumbing.

    Parameters
    ----------
    budgeter:
        Power-cap allocation policy.
    target_source:
        Time-varying cluster power target (W).  Wrapped in a
        :class:`~repro.core.targets.HoldLastGoodTarget` on construction so a
        raising or NaN-emitting source degrades to hold-last-with-decay
        instead of crashing the control loop.
    classifier:
        Supplies the believed model for each job's claimed type.
    total_nodes:
        Cluster size; used to estimate idle-node power draw.
    idle_power_estimate:
        Watts the manager assumes an idle node draws (facility knowledge).
    meter:
        Callable returning the current facility-measured cluster power; used
        only for tracking-accuracy accounting, never for budgeting (the
        budget is feed-forward from the target, as in AQA).
    use_feedback:
        Accept online models from job-tier status messages (the paper's
        feedback-enabled configurations).
    min_feedback_r2:
        Reject online fits whose reported R² falls below this.  The default
        is deliberately low: a genuinely flat power-performance curve has
        low R² by construction (no signal to explain), yet sharing it is
        exactly what recovers the over-estimation cases (Figs. 8, 10); the
        job-tier endpoint already withholds degenerate fits.
    stale_status_timeout:
        Seconds of silence after which a job's online model is distrusted and
        the job is budgeted conservatively (floor cap sent, its last cap's
        worth of power reserved — a silent job may still be drawing it).
    dead_job_timeout:
        Seconds of silence after which the job is presumed gone: its record
        is evicted and its link unregistered.  This is what closes the
        dropped-goodbye leak — a ghost record cannot outlive the timeout.
    """

    budgeter: PowerBudgeter
    target_source: PowerTargetSource
    classifier: JobClassifier
    total_nodes: int
    idle_power_estimate: float = 60.0
    meter: Callable[[], float] | None = None
    use_feedback: bool = True
    min_feedback_r2: float = 0.05
    p_node_min: float = 140.0
    p_node_max: float = 280.0
    # Integral trim on the budget: the manager compares the facility meter
    # against the target and slowly corrects systematic bias (jobs in
    # low-power setup/teardown phases, caps the workload cannot fill, RAPL
    # quantisation).  Gain 0 disables it (pure feed-forward, as in AQA).
    correction_gain: float = 0.15
    correction_limit_fraction: float = 0.25
    stale_status_timeout: float = 15.0
    dead_job_timeout: float = 60.0

    # Cap leases (fail-safe enforcement, DESIGN.md §4e).  When ``lease_ttl``
    # is set, every dispatched cap is only valid that many seconds past
    # receipt; leaseless endpoints decay toward ``safe_floor`` (p_node_min
    # when unset).  ``None`` keeps pre-lease hold-last-value semantics and
    # bit-identical golden traces.
    lease_ttl: float | None = None
    safe_floor: float | None = None

    # Optional overshoot breaker (DESIGN.md §4e): while open, every cap this
    # round is clamped to the emergency floor — a uniform throttle that only
    # ever *reduces* the planned draw, so BudgetRound invariants still hold.
    breaker: PowerBreaker | None = None

    # Optional cap-compliance auditor (trust boundary, DESIGN.md §4f): audits
    # each job's out-of-band metered draw against its dispatched cap and its
    # shipped model, and quarantines non-compliant endpoints.  None keeps the
    # pre-audit control flow and bit-identical golden traces.
    auditor: CapComplianceAuditor | None = None

    # Optional write-ahead journal (head-node crash recovery, DESIGN.md §4d).
    # None keeps every hot path journalling-free — zero overhead when off.
    journal: Journal | None = None

    # Optional receding-horizon planner (predictive planning, DESIGN.md §9):
    # forecasts the target over the next H rounds, pre-solves the budgeter,
    # and hands this round's allocation back as a warm start.  The planned
    # total must still fit the budget derived from the *actual* target read
    # this round, and leases/breaker/quarantine are applied after the plan is
    # consumed — a wrong forecast can never out-spend the reactive path.
    # None keeps the reactive control flow and bit-identical golden traces.
    planner: RecedingHorizonPlanner | None = None

    # Optional graceful-degradation controller (DESIGN.md §10): grades a
    # sagging power feed into severity states, shrinks the budgeting target
    # to the ladder's ramped ceiling, clamps shed-class caps to the floor,
    # and queues preempt/kill actions for the framework to execute between
    # rounds.  Every intervention only *reduces* caps, so BudgetRound
    # invariants still hold.  None keeps the pre-shed control flow and
    # bit-identical golden traces.
    shed: ShedController | None = None

    # Observability (DESIGN.md §8): metrics + control-round span tree.  The
    # shared NULL instance keeps every emission a single attribute check.
    telemetry: Telemetry = field(default=NULL_TELEMETRY)

    jobs: dict[str, JobRecord] = field(default_factory=dict)
    tracking: list[TrackingSample] = field(default_factory=list)
    events: list[str] = field(default_factory=list)
    last_round: BudgetRound | None = field(default=None)
    last_allocation: BudgetAllocation | None = field(default=None)
    evictions: int = 0
    rejected_statuses: int = 0
    rejected_models: int = 0
    meter_faults: int = 0
    # Dispatches whose cap differed from the job's previous one — the cap
    # churn the predictive planner's hysteresis is meant to reduce; counted
    # in reactive runs too so drills can compare like for like.
    cap_rewrites: int = 0
    # Recovery-mode state: jobs restored from the durable store awaiting
    # their re-HELLO, the reconnect deadline, jobs declared orphaned at that
    # deadline (drained by AnorSystem for requeue/cleanup), and how many
    # reconnects merged warm state back in (observability).
    orphaned: list[str] = field(default_factory=list)
    recovery_merges: int = 0
    # Re-HELLOs whose degraded-history model was validated and adopted
    # (partition recovery path — distinct from checkpoint recovery_merges).
    hello_merges: int = 0
    _recovered: dict[str, RecoveredJob] = field(default_factory=dict)
    _recovery_deadline: float | None = None
    _links: list[TcpLink] = field(default_factory=list)
    _correction: float = 0.0
    _last_journalled_target: float | None = None

    def __post_init__(self) -> None:
        if self.stale_status_timeout <= 0:
            raise ValueError(
                f"stale_status_timeout must be positive, got {self.stale_status_timeout}"
            )
        if self.dead_job_timeout < self.stale_status_timeout:
            raise ValueError(
                "dead_job_timeout must be ≥ stale_status_timeout, got "
                f"{self.dead_job_timeout} < {self.stale_status_timeout}"
            )
        if not isinstance(self.target_source, HoldLastGoodTarget):
            self.target_source = HoldLastGoodTarget(
                self.target_source,
                floor=self.total_nodes * self.p_node_min,
            )
        self._round_span = 0
        self._shed_span = 0
        if self.telemetry.enabled:
            self._init_metrics()

    def _init_metrics(self) -> None:
        """Create the manager's metric handles once (enabled runs only)."""
        reg = self.telemetry.registry
        # Label-addressed children (anor_job_cap_watts{job=...}) are cached
        # per job: the registry resolves (name, labels) with validation and
        # a sorted label key on every call, which the cap-dispatch hot path
        # would otherwise pay per job per round.
        self._mx_job_cap: dict[str, object] = {}
        self._mx_rounds = reg.counter(
            "anor_budget_rounds_total", "budgeting rounds executed")
        self._mx_caps_sent = reg.counter(
            "anor_caps_sent_total", "per-job cap messages dispatched")
        self._mx_models_accepted = reg.counter(
            "anor_models_accepted_total", "online model fits accepted")
        self._mx_models_rejected = reg.counter(
            "anor_models_rejected_total", "online model fits rejected")
        self._mx_statuses_rejected = reg.counter(
            "anor_statuses_rejected_total", "corrupt status messages rejected")
        self._mx_evictions = reg.counter(
            "anor_jobs_evicted_total", "jobs evicted after dead-job timeout")
        self._mx_meter_faults = reg.counter(
            "anor_meter_faults_total", "facility meter samples discarded")
        self._mx_journal_records = reg.counter(
            "anor_journal_records_total", "write-ahead journal records appended")
        self._mx_target = reg.gauge(
            "anor_cluster_target_watts", "current cluster power target")
        self._mx_measured = reg.gauge(
            "anor_cluster_power_watts", "facility-metered cluster power")
        self._mx_correction = reg.gauge(
            "anor_power_correction_watts", "integral trim on the budget")
        self._mx_planned = reg.gauge(
            "anor_planned_draw_watts", "idle + reserved + allocated plan")
        self._mx_jobs = {
            state: reg.gauge(
                "anor_jobs", "connected jobs by budgeting state", state=state)
            for state in ("active", "dormant", "stale", "recovering",
                          "quarantined")
        }
        self._mx_tracking = reg.histogram(
            "anor_tracking_error_ratio",
            "|measured - target| / target per manager period",
        )
        self._mx_breaker = reg.gauge(
            "anor_breaker_state",
            "overshoot breaker state (0 closed, 1 half-open, 2 open)",
        )
        self._mx_cap_rewrites = reg.counter(
            "anor_cap_rewrites_total",
            "cap dispatches that changed a job's previous cap",
        )
        if self.planner is not None:
            self._mx_plan_state = reg.gauge(
                "anor_plan_state",
                "planner envelope state (0 shadow, 1 active, 2 fallback)",
            )
            self._mx_forecast_error = reg.gauge(
                "anor_forecast_error_watts",
                "windowed mean absolute forecast error",
            )
            self._mx_plan_fallbacks = reg.counter(
                "anor_plan_fallbacks_total",
                "envelope trips from active planning back to reactive",
            )
        if self.shed is not None:
            self._mx_shed_severity = reg.gauge(
                "anor_shed_severity",
                "degradation-ladder severity (0 normal .. 3 blackstart)",
            )
            self._mx_shed_ceiling = reg.gauge(
                "anor_shed_ceiling_watts",
                "effective budget ceiling after the recovery ramp",
            )
            self._mx_shed_actions = {
                action: reg.counter(
                    "anor_shed_actions_total",
                    "shed actions dispatched by the degradation ladder",
                    action=action,
                )
                for action in ("cap-to-floor", "preempt", "kill")
            }
            self._mx_shed_restores = reg.counter(
                "anor_shed_restores_total",
                "shed episodes cleared (severity back to normal)",
            )

    # ------------------------------------------------------------- plumbing

    def _journal(self, rtype: str, now: float, **data) -> None:
        if self.journal is not None:
            self.journal.append(rtype, now, data)
            if self.telemetry.enabled:
                self._mx_journal_records.inc()

    def register_link(self, link: TcpLink) -> None:
        """Accept a new job endpoint connection."""
        self._links.append(link)

    def _drain_messages(self, now: float) -> None:
        for link in list(self._links):
            for msg in link.recv_up(now):
                if isinstance(msg, HelloMessage):
                    self._on_hello(msg, link, now)
                elif isinstance(msg, StatusMessage):
                    self._on_status(msg, now)
                elif isinstance(msg, GoodbyeMessage):
                    self._on_goodbye(msg, link, now)

    def _on_hello(self, msg: HelloMessage, link: TcpLink, now: float) -> None:
        believed = self.classifier.model_for(msg.claimed_type, job_name=msg.job_id)
        stale = self.jobs.get(msg.job_id)
        if stale is not None and stale.link is not link:
            # The job reconnected over a fresh link (endpoint restart or
            # requeue after a node crash); drop the dead one immediately
            # rather than waiting for the dead-job timeout.
            if stale.link in self._links:
                self._links.remove(stale.link)
            stale.link.close("replaced")
            self.events.append(
                f"t={now:.1f} {msg.job_id}: reconnected, replaced stale link"
            )
        # The believed power ceiling is where the believed model flattens out;
        # the platform cannot cap below p_node_min regardless.
        record = JobRecord(
            job_id=msg.job_id,
            claimed_type=msg.claimed_type,
            nodes=msg.nodes,
            link=link,
            believed_model=believed,
            believed_p_max=min(believed.p_max, self.p_node_max),
            last_heard=now,
        )
        recovered = self._recovered.pop(msg.job_id, None)
        if recovered is not None:
            # Head-node restart reconciliation: the job was known before the
            # crash — merge its checkpointed model and budget accounting so
            # the cluster tier resumes warm instead of relearning the curve.
            record.online_model = recovered.online_model
            record.online_r2 = recovered.online_r2
            record.last_cap = recovered.last_cap
            record.caps_sent = recovered.caps_sent
            self.recovery_merges += 1
            self.events.append(
                f"t={now:.1f} {msg.job_id}: reconciled after head-node restart "
                f"(model {'restored' if recovered.online_model is not None else 'none'})"
            )
            if not self._recovered and self._recovery_deadline is not None:
                self.events.append(f"t={now:.1f} recovery complete: all jobs reconciled")
                self._recovery_deadline = None
        elif stale is not None:
            # Warm reconnect: an endpoint restart must not cost the cluster
            # tier its validated online model or its budget accounting — the
            # job itself never stopped running.
            record.online_model = stale.online_model
            record.online_r2 = stale.online_r2
            record.last_cap = stale.last_cap
            record.caps_sent = stale.caps_sent
        model = None
        if self.use_feedback and msg.has_model:
            # Degraded-history handoff: the endpoint kept fitting while the
            # head was unreachable, so its HELLO-borne fit is *fresher* than
            # anything restored above — validate it exactly like a status
            # model and let it win.
            model = self._validated_model(msg, record)
            if model is not None:
                record.online_model = model
                record.online_r2 = msg.model_r2
                self.hello_merges += 1
                self.events.append(
                    f"t={now:.1f} {msg.job_id}: warm-merged degraded-mode model "
                    f"({msg.degraded_seconds:.1f}s of autonomy)"
                )
                if self.telemetry.enabled:
                    self.telemetry.incident(
                        "degraded-rejoin",
                        now,
                        job_id=msg.job_id,
                        degraded_seconds=msg.degraded_seconds,
                    )
            else:
                self.rejected_models += 1
                if self.telemetry.enabled:
                    self._mx_models_rejected.inc()
        self.jobs[msg.job_id] = record
        if self.telemetry.enabled:
            self.telemetry.bus.event(
                "job-hello",
                now,
                job_id=msg.job_id,
                claimed_type=msg.claimed_type,
                nodes=msg.nodes,
                reconnect=stale is not None,
                recovered=recovered is not None,
            )
        self._journal(
            "job-admit",
            now,
            kind="hello",
            job_id=msg.job_id,
            claimed_type=msg.claimed_type,
            nodes=msg.nodes,
            believed_p_max=record.believed_p_max,
        )
        if model is not None:
            # After the admit record: replay folds a fit into a job it knows.
            self._record_fit(record, now)

    def _on_status(self, msg: StatusMessage, now: float) -> None:
        record = self.jobs.get(msg.job_id)
        if record is None:
            return  # status raced past the goodbye; ignore
        # Any arrival proves the endpoint process is alive, even if the
        # payload is garbage — heartbeat first, validation second.
        record.last_heard = now
        if not (
            math.isfinite(msg.measured_power)
            and msg.measured_power >= 0.0
            and math.isfinite(msg.applied_cap)
            and msg.applied_cap > 0.0
        ):
            self.rejected_statuses += 1
            if self.telemetry.enabled:
                self._mx_statuses_rejected.inc()
                self.telemetry.incident("status-rejected", now, job_id=msg.job_id)
            self.events.append(
                f"t={now:.1f} {msg.job_id}: rejected corrupt status "
                f"(power={msg.measured_power}, cap={msg.applied_cap})"
            )
            return
        record.last_status = msg
        # A status repeating the fit this record already holds is a heartbeat:
        # nothing changed, so nothing is re-validated, journalled or announced.
        held = record.online_model
        repeat = (
            held is not None
            and held.a == msg.model_a
            and held.b == msg.model_b
            and held.c == msg.model_c
            and held.p_max == record.believed_p_max
            and record.online_r2 == msg.model_r2
        )
        if self.use_feedback and msg.has_model and not repeat:
            # NaN r2 must NOT satisfy the quality gate by comparing False —
            # let it through to validation, which rejects non-finite r2.
            if msg.model_r2 is None or not (msg.model_r2 < self.min_feedback_r2):
                model = self._validated_model(msg, record)
                if model is None:
                    self.rejected_models += 1
                    if self.telemetry.enabled:
                        self._mx_models_rejected.inc()
                        self.telemetry.bus.event(
                            "model-reject",
                            now,
                            parent=self._round_span or None,
                            job_id=msg.job_id,
                        )
                    self.events.append(
                        f"t={now:.1f} {msg.job_id}: rejected model coefficients "
                        f"(a={msg.model_a}, b={msg.model_b}, c={msg.model_c})"
                    )
                else:
                    record.online_model = model
                    record.online_r2 = msg.model_r2
                    self._record_fit(record, now)

    def _record_fit(self, record: JobRecord, now: float) -> None:
        """Count, announce and journal the fit ``record`` just adopted."""
        model, r2 = record.online_model, record.online_r2
        if self.telemetry.enabled:
            self._mx_models_accepted.inc()
            self.telemetry.bus.event(
                "model-accept", now, parent=self._round_span or None,
                job_id=record.job_id, r2=r2,
            )
        self._journal(
            "model-accept", now, job_id=record.job_id,
            a=model.a, b=model.b, c=model.c, r2=r2,
        )

    def _validated_model(
        self, msg: StatusMessage, record: JobRecord
    ) -> QuadraticPowerModel | None:
        """Build the job's online model iff the coefficients are physical.

        One corrupt message (NaN/inf coefficients, or a curve that claims
        *more* power makes the job slower) would otherwise flow straight
        into the budgeter's bisection and poison every job's cap.
        """
        coeffs = (msg.model_a, msg.model_b, msg.model_c)
        if not all(c is not None and math.isfinite(c) for c in coeffs):
            return None
        if msg.model_r2 is not None and not math.isfinite(msg.model_r2):
            return None
        model = QuadraticPowerModel(
            a=float(msg.model_a),
            b=float(msg.model_b),
            c=float(msg.model_c),
            p_min=self.p_node_min,
            p_max=record.believed_p_max,
        )
        if not model.is_monotone_decreasing() or model.t_min <= 0:
            return None
        return model

    def _on_goodbye(self, msg: GoodbyeMessage, link: TcpLink, now: float) -> None:
        if self.jobs.pop(msg.job_id, None) is not None:
            if self.telemetry.enabled:
                self._mx_job_cap.pop(msg.job_id, None)
                self.telemetry.bus.event("job-goodbye", now, job_id=msg.job_id)
            self._journal("job-evict", now, job_id=msg.job_id, kind="goodbye")
        if link in self._links:
            self._links.remove(link)
        link.close("goodbye")

    def _evict_dead(self, now: float) -> None:
        """Garbage-collect jobs silent past the dead-job timeout.

        Covers every way a job can vanish without a goodbye reaching us: the
        goodbye dropped on a lossy link, the endpoint process crashed, or
        the node crashed and took the whole job with it.
        """
        dead = [
            job_id
            for job_id, record in self.jobs.items()
            if now - record.last_heard > self.dead_job_timeout
        ]
        for job_id in dead:
            record = self.jobs.pop(job_id)
            if record.link in self._links:
                self._links.remove(record.link)
            record.link.close("evicted")
            self.evictions += 1
            if self.telemetry.enabled:
                self._mx_job_cap.pop(job_id, None)
                self._mx_evictions.inc()
                self.telemetry.incident(
                    "job-evicted",
                    now,
                    job_id=job_id,
                    silent_for=now - record.last_heard,
                )
            self.events.append(
                f"t={now:.1f} {job_id}: evicted after "
                f"{now - record.last_heard:.1f}s of silence"
            )
            self._journal("job-evict", now, job_id=job_id, kind="timeout")

    # ------------------------------------------------------------- recovery

    def begin_recovery(
        self, now: float, recovered: dict[str, RecoveredJob], timeout: float
    ) -> None:
        """Enter bounded recovery mode after a head-node restart.

        Every restored job stays a conservative liability — its last sent cap
        (× nodes) reserved, no budget granted — until it re-HELLOs over a
        fresh link or the reconnect window closes, whichever comes first.
        Jobs still silent at the deadline are declared orphans: they died
        during the outage (or their endpoint did; the node-local watchdog
        brings those back later as ordinary new connections).
        """
        if timeout <= 0:
            raise ValueError(f"recovery timeout must be positive, got {timeout}")
        self._recovered = dict(recovered)
        self._recovery_deadline = now + timeout
        self.events.append(
            f"t={now:.1f} recovery mode: {len(recovered)} job(s) to reconcile, "
            f"deadline t={self._recovery_deadline:.1f}"
        )

    def restore_from_state(
        self,
        manager_state: dict,
        target_hold: dict,
        *,
        now: float,
        recovery_timeout: float,
    ) -> None:
        """Rebuild learned/accounting state from a checkpoint+journal baseline.

        Called on a freshly constructed manager during a supervised head-node
        restart: the integral correction, incident counters, hold-last-good
        target state, and per-job records come back; the jobs themselves
        enter recovery mode until they re-HELLO.
        """
        self._correction = float(manager_state.get("correction", 0.0))
        counters = manager_state.get("counters", {})
        self.evictions = int(counters.get("evictions", 0))
        self.rejected_statuses = int(counters.get("rejected_statuses", 0))
        self.rejected_models = int(counters.get("rejected_models", 0))
        self.meter_faults = int(counters.get("meter_faults", 0))
        self.target_source.restore_state(target_hold)
        recovered = recovered_jobs_from_state(
            manager_state.get("jobs", {}), p_node_min=self.p_node_min
        )
        self.begin_recovery(now, recovered, recovery_timeout)

    @property
    def in_recovery(self) -> bool:
        return self._recovery_deadline is not None

    def recovered_items(self) -> list[tuple[str, RecoveredJob]]:
        """Restored-but-unreconciled jobs, in deterministic order."""
        return sorted(self._recovered.items())

    def recovered_job(self, job_id: str) -> RecoveredJob | None:
        return self._recovered.get(job_id)

    def _reconcile_recovery(self, now: float) -> None:
        if self._recovery_deadline is None or now < self._recovery_deadline:
            return
        for job_id in sorted(self._recovered):
            self._recovered.pop(job_id)
            self.orphaned.append(job_id)
            if self.telemetry.enabled:
                self.telemetry.incident("recovery-orphan", now, job_id=job_id)
            self.events.append(
                f"t={now:.1f} {job_id}: recovery orphan "
                f"(no reconnect before t={self._recovery_deadline:.1f})"
            )
            self._journal("job-evict", now, job_id=job_id, kind="orphan")
        self._recovery_deadline = None
        self.events.append(f"t={now:.1f} recovery window closed")

    # -------------------------------------------------------------- control

    def next_plan_instant(self) -> float | None:
        """Earliest upcoming plan instant for the event calendar (None when
        planning is off, inactive, or has no known breakpoints)."""
        if self.planner is None:
            return None
        return self.planner.next_instant()

    def plan_instant_due(self, now: float) -> bool:
        """True when an active plan wants a control round fired at ``now``.

        Also consumes instants that have passed, so a round triggered by the
        ordinary manager gate at the same tick does not double-fire.
        """
        if self.planner is None:
            return False
        return self.planner.take_due_instants(now)

    def _observe_shed(self, target: float, now: float) -> float:
        """Grade the feed through the degradation ladder; returns the
        effective budgeting target (the ladder's ramped ceiling)."""
        shed = self.shed
        prev = shed.severity
        effective = shed.observe(target, now)
        tel = self.telemetry.enabled
        if shed.severity != prev:
            self.events.append(
                f"t={now:.1f} shed {prev} -> {shed.severity} "
                f"(target={target:.0f}W ceiling={effective:.0f}W)"
            )
            if tel:
                self.telemetry.incident(
                    "shed-" + shed.severity, now,
                    target=target, ceiling=effective,
                )
                if prev == "normal" and self._shed_span == 0:
                    # One span per incident episode: opened on the first
                    # escalation, closed when severity returns to normal.
                    self._shed_span = self.telemetry.bus.begin_span(
                        "shed-episode", now, severity=shed.severity
                    )
                elif shed.severity == "normal":
                    self._mx_shed_restores.inc()
                    if self._shed_span:
                        self.telemetry.bus.end_span(
                            self._shed_span, now,
                            preempts=shed.preempts, kills=shed.kills,
                        )
                        self._shed_span = 0
        if tel:
            self._mx_shed_severity.set(shed.ladder.gauge_value)
            self._mx_shed_ceiling.set(effective)
        return effective

    def _apply_shed(self, caps: dict[str, float], now: float) -> None:
        """Clamp shed-class caps and queue preempt/kill actions in class
        order.  Only ever reduces caps; protected jobs can at most be
        floored (the plan table has no harsher entry for them)."""
        shed = self.shed
        plan = shed.ladder.plan
        tel = self.telemetry.enabled
        for job_id in sorted(caps):
            record = self.jobs.get(job_id)
            if record is None:
                continue
            action = plan[shed.class_of(record.claimed_type)]
            if action == "none":
                continue
            if caps[job_id] > self.p_node_min:
                caps[job_id] = self.p_node_min
                if tel and action == "cap-to-floor":
                    self._mx_shed_actions["cap-to-floor"].inc()
            if action in ("preempt", "kill") and shed.request_shed(job_id, action, now):
                self.events.append(
                    f"t={now:.1f} {job_id}: shed {action} "
                    f"(severity={shed.severity})"
                )
                if tel:
                    self._mx_shed_actions[action].inc()
                    self.telemetry.incident(
                        "shed-" + action, now,
                        parent=self._shed_span or None,
                        job_id=job_id, severity=shed.severity,
                    )

    def step(self, now: float) -> dict[str, float]:
        """One manager period: drain messages, budget, send caps.

        Returns the per-job node caps chosen this round (empty when no jobs
        are connected).
        """
        tel = self.telemetry.enabled
        if tel:
            # Span tree per DESIGN.md §8: control-round wraps everything this
            # period; message-handler events parent themselves to it.
            self._round_span = self.telemetry.bus.begin_span("control-round", now)
            self._mx_rounds.inc()
        self._drain_messages(now)
        self._evict_dead(now)
        self._reconcile_recovery(now)
        target = self.target_source.target(now)
        if self.shed is not None:
            # The ladder sees the raw feed; everything downstream budgets
            # to its ramped ceiling (identical to the feed while normal).
            target = self._observe_shed(target, now)
        if tel:
            self.telemetry.bus.event(
                "target-read", now, parent=self._round_span, target=target
            )
            self._mx_target.set(target)
        if self.journal is not None and target != self._last_journalled_target:
            self._journal(
                "target-change",
                now,
                target=target,
                hold=self.target_source.state_dict(),
            )
            self._last_journalled_target = target
        if self.planner is not None:
            # Score the previous round's forecast against the target just
            # read and advance the shadow/active/fallback state machine —
            # before budgeting, so a trip this round already budgets
            # reactively.
            prev_plan_state = self.planner.state
            plan_state = self.planner.observe(now, target)
            if plan_state != prev_plan_state:
                self.events.append(
                    f"t={now:.1f} plan {prev_plan_state} -> {plan_state} "
                    f"(mae={self.planner.forecaster.mae:.1f}W)"
                )
                if tel:
                    self.telemetry.incident(
                        "plan-" + plan_state,
                        now,
                        mae=self.planner.forecaster.mae,
                        bound=self.planner.envelope.error_bound_watts,
                    )
                    if plan_state == PLAN_FALLBACK:
                        self._mx_plan_fallbacks.inc()
            if tel:
                self._mx_plan_state.set(self.planner.envelope.gauge)
                self._mx_forecast_error.set(self.planner.forecaster.mae)
        if self.meter is not None:
            try:
                measured = float(self.meter())
            except Exception:
                measured = math.nan
            if math.isfinite(measured):
                self.tracking.append(
                    TrackingSample(time=now, target=target, measured=measured)
                )
                if tel:
                    self._mx_measured.set(measured)
                    if target > 0:
                        self._mx_tracking.observe(abs(measured - target) / target)
                if self.breaker is not None:
                    prev_state = self.breaker.state
                    state = self.breaker.observe(measured, target, now=now)
                    if state != prev_state:
                        self.events.append(
                            f"t={now:.1f} breaker {prev_state} -> {state} "
                            f"(measured={measured:.0f}W target={target:.0f}W)"
                        )
                        if tel:
                            self.telemetry.incident(
                                "breaker-" + state,
                                now,
                                measured=measured,
                                target=target,
                            )
                    if tel:
                        self._mx_breaker.set(self.breaker.gauge_value)
                if self.correction_gain > 0:
                    limit = self.correction_limit_fraction * target
                    self._correction = float(
                        np.clip(
                            self._correction + self.correction_gain * (target - measured),
                            -limit,
                            limit,
                        )
                    )
            else:
                # Meter outage: no sample, and the integral term holds its
                # last value rather than winding up against garbage.
                self.meter_faults += 1
                if tel:
                    self._mx_meter_faults.inc()
                    self.telemetry.incident("meter-fault", now)
        if not self.jobs and not self._recovered:
            self.last_round = None
            self.last_allocation = None
            if self.planner is not None:
                self.planner.clear()
            if tel:
                # The early return must still close the round span — leaked
                # open spans would fail trace validation.
                self.telemetry.bus.end_span(self._round_span, now, jobs=0)
                self._round_span = 0
            return {}
        # Restored-but-unreconciled jobs are presumed alive: their nodes are
        # busy and their last sent cap stays reserved — the conservative
        # stance that keeps planned draw under the target while the cluster
        # re-discovers itself.
        recovering = [self._recovered[j] for j in sorted(self._recovered)]
        busy_nodes = sum(r.nodes for r in self.jobs.values()) + sum(
            r.nodes for r in recovering
        )
        idle_nodes = max(0, self.total_nodes - busy_nodes)
        idle_power = idle_nodes * self.idle_power_estimate
        available = max(target - idle_power + self._correction, 1.0)
        budget_span = 0
        if tel:
            budget_span = self.telemetry.bus.begin_span(
                "budget-round",
                now,
                parent=self._round_span,
                policy=self.budgeter.name,
                target=target,
                available=available,
            )
        # Triage (§7.2 plus fault hardening):
        # * stale — silent beyond the staleness timeout: its online fit and
        #   last status can no longer be trusted, so reserve what it may
        #   still be drawing (its last cap) and send the floor cap;
        # * dormant — heard recently but drawing idle-level power
        #   (setup/teardown): budget it at what it actually consumes;
        # * active — budget normally.
        quarantined: list[JobRecord] = []
        if self.auditor is not None:
            # Trust audit (DESIGN.md §4f) runs before triage so that this
            # round's quarantine verdicts shape this round's budget.  It
            # lives entirely inside the manager gate, keeping the event
            # calendar's stride planning oblivious to it.
            self.events.extend(self.auditor.audit_round(now, self.jobs))
        stale: list[JobRecord] = []
        dormant: list[JobRecord] = []
        active: list[JobRecord] = []
        for record in sorted(self.jobs.values(), key=lambda r: r.job_id):
            if self.auditor is not None and self.auditor.is_quarantined(
                record.job_id
            ):
                quarantined.append(record)
                continue
            status = record.last_status
            threshold = record.nodes * self.idle_power_estimate * 1.5
            if now - record.last_heard > self.stale_status_timeout:
                stale.append(record)
            elif status is None or status.measured_power < threshold:
                dormant.append(record)
            else:
                active.append(record)
        caps: dict[str, float] = {}
        reserved = 0.0
        for rec in recovering:
            assumed_cap = (
                rec.last_cap if rec.last_cap is not None else rec.believed_p_max
            )
            reserved += rec.nodes * assumed_cap
        for record in stale:
            assumed_cap = (
                record.last_cap if record.last_cap is not None else record.believed_p_max
            )
            reserved += record.nodes * assumed_cap
            caps[record.job_id] = self.p_node_min
        for record in dormant:
            drawn = (
                record.last_status.measured_power
                if record.last_status is not None
                else record.nodes * self.idle_power_estimate
            )
            reserved += drawn
            caps[record.job_id] = self.p_node_min
        for record in quarantined:
            # Conservative envelope: reserve the job's *metered* draw plus
            # the guardband (never its self-reported model) and dispatch the
            # probe cap.  The headroom it was claiming flows back into the
            # budgeter's pool for trusted jobs below.
            envelope, probe_cap = self.auditor.envelope(record)
            reserved += envelope
            caps[record.job_id] = probe_cap
        allocated = 0.0
        allocation: BudgetAllocation | None = None
        if active:
            requests = [
                JobBudgetRequest(
                    job_id=r.job_id,
                    nodes=r.nodes,
                    # A rehabilitating job is budgeted again, but from the
                    # believed (facility-side) model — its self-reported fit
                    # stays distrusted until it re-earns trusted status.
                    model=(
                        r.believed_model
                        if self.auditor is not None
                        and self.auditor.distrusts_model(r.job_id)
                        else r.active_model
                    ),
                    p_min=self.p_node_min,
                    p_max=r.believed_p_max,
                )
                for r in active
            ]
            pool = max(available - reserved, 1.0)
            plan_span = 0
            if self.planner is not None:
                if tel:
                    plan_span = self.telemetry.bus.begin_span(
                        "plan-round",
                        now,
                        parent=self._round_span,
                        state=self.planner.state,
                    )
                allocation = self.planner.dispatch(
                    now,
                    requests,
                    pool,
                    {r.job_id: r.last_cap for r in active},
                )
            if allocation is None:
                allocation = self.budgeter.allocate(requests, pool)
            if self.planner is not None:
                # Rebuild the cap trajectory for the next H rounds from this
                # round's job set and the envelope-clamped forecast; future
                # dispatches warm-start from it, and its breakpoints become
                # plan instants for the event calendar.
                plan = self.planner.rebuild(
                    now,
                    requests,
                    observed_target=target,
                    idle_power=idle_power,
                    reserved=reserved,
                    correction=self._correction,
                )
                if tel:
                    self.telemetry.bus.end_span(
                        plan_span,
                        now,
                        state=self.planner.state,
                        warm=allocation.meta.get("plan_warm", 0.0),
                        held_caps=allocation.meta.get("plan_held_caps", 0.0),
                        horizon_points=len(plan.rounds),
                        forecast_mae=self.planner.forecaster.mae,
                    )
            caps.update(allocation.caps)
            allocated = sum(
                allocation.caps[r.job_id] * r.nodes for r in active
            )
        self.last_allocation = allocation
        self.last_round = BudgetRound(
            time=now,
            target=target,
            correction=self._correction,
            idle_power=idle_power,
            reserved=reserved,
            allocated=allocated,
            floor=idle_power
            + reserved
            + sum(r.nodes for r in active) * self.p_node_min,
            stale_jobs=len(stale),
            dormant_jobs=len(dormant),
            active_jobs=len(active),
            recovering_jobs=len(recovering),
            quarantined_jobs=len(quarantined),
        )
        if tel:
            # Policy metadata rides along: even-slowdown publishes its common
            # slowdown s, fair-share its γ — whatever the budgeter reports.
            self.telemetry.bus.end_span(
                budget_span,
                now,
                allocated=allocated,
                reserved=reserved,
                idle_power=idle_power,
                correction=self._correction,
                floor=self.last_round.floor,
                stale=len(stale),
                dormant=len(dormant),
                active=len(active),
                recovering=len(recovering),
                quarantined=len(quarantined),
                **(dict(allocation.meta) if allocation is not None else {}),
            )
            self._mx_correction.set(self._correction)
            self._mx_planned.set(idle_power + reserved + allocated)
            self._mx_jobs["active"].set(len(active))
            self._mx_jobs["dormant"].set(len(dormant))
            self._mx_jobs["stale"].set(len(stale))
            self._mx_jobs["recovering"].set(len(recovering))
            self._mx_jobs["quarantined"].set(len(quarantined))
        if self.breaker is not None and self.breaker.tripped:
            # Emergency uniform throttle: clamp every cap to the facility
            # floor while the breaker is open.  min() — never raise a cap —
            # so the planned-draw ceiling above remains an upper bound.
            emergency = (
                self.safe_floor if self.safe_floor is not None else self.p_node_min
            )
            emergency = max(self.p_node_min, float(emergency))
            caps = {job_id: min(cap, emergency) for job_id, cap in caps.items()}
        if self.shed is not None and self.shed.active:
            self._apply_shed(caps, now)
        for record in self.jobs.values():
            cap = caps[record.job_id]
            if cap != record.last_cap:
                self.cap_rewrites += 1
                if tel:
                    self._mx_cap_rewrites.inc()
            record.link.send_down(
                BudgetMessage(
                    job_id=record.job_id,
                    power_cap_node=cap,
                    timestamp=now,
                    lease_ttl=self.lease_ttl,
                    safe_floor=self.safe_floor,
                ),
                now,
            )
            record.caps_sent += 1
            record.last_cap = cap
            if tel:
                self._mx_caps_sent.inc()
                gauge = self._mx_job_cap.get(record.job_id)
                if gauge is None:
                    gauge = self.telemetry.registry.gauge(
                        "anor_job_cap_watts",
                        "most recent per-node cap sent to each job",
                        job=record.job_id,
                    )
                    self._mx_job_cap[record.job_id] = gauge
                gauge.set(cap)
        if tel:
            self.telemetry.bus.event(
                "cap-dispatch", now, parent=self._round_span, caps=dict(caps)
            )
        if self.journal is not None:
            self._journal(
                "cap-decision",
                now,
                caps=caps,
                correction=self._correction,
                target=target,
                hold=self.target_source.state_dict(),
            )
        if tel:
            self.telemetry.bus.end_span(self._round_span, now, jobs=len(caps))
            self._round_span = 0
        return caps
