"""The cluster-tier power manager (paper §4, §4.4).

A single process on the head node: each period it is handed the facility's
two readings (the cluster power target and the metered cluster power),
listens to each job's endpoint over its TCP link, chooses per-job power caps
with a pluggable budgeter, and sends each job its new cap.  Job
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
good target with bounded decay).  The readings are the round's inputs
(``step(now, feed, measured)``): the manager reads no facility object itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.budget.base import JobBudgetRequest, PowerBudgeter
from repro.core.messages import BudgetMessage, GoodbyeMessage, HelloMessage, StatusMessage
from repro.core.round import BudgetRound, JobRecord
from repro.core.targets import HoldLastGoodTarget
from repro.core.transport import TcpLink
from repro.modeling.classifier import JobClassifier
from repro.modeling.quadratic import QuadraticPowerModel
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.nas import IDLE_NODE_POWER, P_NODE_MAX, P_NODE_MIN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.audit import CapComplianceAuditor
    from repro.durable.store import DurableStore
    from repro.facility.breaker import PowerBreaker
    from repro.facility.shed import ShedController
    from repro.plan.planner import RecedingHorizonPlanner

__all__ = ["JobRecord", "BudgetRound", "ClusterPowerManager"]

#: Lowest R² an online fit may report and still be adopted.  Deliberately
#: low: a genuinely flat power-performance curve has low R² by construction
#: (no signal to explain), yet sharing it is exactly what recovers the
#: over-estimation cases (Figs. 8, 10); the endpoint already withholds
#: degenerate fits.
MIN_FEEDBACK_R2 = 0.05
#: Bound on the integral trim's magnitude, as a fraction of the target: the
#: trim corrects systematic bias, it must never stand in for the target.
CORRECTION_LIMIT_FRACTION = 0.25
#: Seconds of silence (s) after which a job's online model is distrusted and
#: the job is budgeted conservatively: floor cap sent, its last cap's worth of
#: power reserved, since a silent job may still be drawing it.  Fifteen
#: endpoint periods at the paper's 1 s cadence.
STALE_STATUS_TIMEOUT = 15.0
#: Seconds of silence (s) after which the job is presumed gone: its record is
#: evicted and its link unregistered, so a ghost record left by a dropped
#: goodbye cannot outlive it.  Never below ``STALE_STATUS_TIMEOUT``: a job is
#: distrusted before it is forgotten.
DEAD_JOB_TIMEOUT = 60.0
#: Seconds (s) a restarted head node waits for restored jobs to re-HELLO
#: before declaring the silent ones orphans (``begin_recovery``).
RECOVERY_TIMEOUT = 30.0


@dataclass
class ClusterPowerManager:
    """Head-node manager: budget computation and message plumbing.

    Parameters
    ----------
    budgeter:
        Power-cap allocation policy.
    classifier:
        Supplies the believed model for each job's claimed type.
    total_nodes:
        Cluster size; each node not held by a job is assumed to draw
        ``IDLE_NODE_POWER`` (facility knowledge), and each node's cap lies in
        ``P_NODE_MIN``–``P_NODE_MAX`` (the platform's, from
        :mod:`repro.workloads.nas`).
    use_feedback:
        Accept online models from job-tier status messages (the paper's
        feedback-enabled configurations), when their R² is at least
        ``MIN_FEEDBACK_R2``.  Heartbeats are judged against
        ``STALE_STATUS_TIMEOUT`` and ``DEAD_JOB_TIMEOUT``.
    """

    budgeter: PowerBudgeter
    classifier: JobClassifier
    total_nodes: int
    use_feedback: bool = True
    # Integral trim on the budget: the manager compares the facility meter
    # against the target and slowly corrects systematic bias (jobs in
    # low-power setup/teardown phases, caps the workload cannot fill, RAPL
    # quantisation).  Gain 0 disables it (pure feed-forward, as in AQA).
    correction_gain: float = 0.15

    # Cap leases (fail-safe enforcement, DESIGN.md §4e).  When ``lease_ttl``
    # is set, every dispatched cap is only valid that many seconds past
    # receipt; an endpoint whose lease lapses decays toward its ``p_min``.
    # ``None`` keeps pre-lease hold-last-value semantics and bit-identical
    # golden traces.
    lease_ttl: float | None = None

    # Optional features.  Each owns its round stages beside its own state
    # (what it does to a round, and why that is safe, is written there); None
    # leaves them out, keeping the control flow and golden traces bit for bit.
    # Overshoot breaker, an emergency uniform throttle (DESIGN.md §4e).
    breaker: PowerBreaker | None = None
    # Cap-compliance auditor, the job tier's trust boundary (DESIGN.md §4f).
    auditor: CapComplianceAuditor | None = None
    # Head-node crash recovery (DESIGN.md §4d): the store every record is
    # journalled into and folded into the head's durable state.
    journal: DurableStore | None = None
    # Receding-horizon planner: forecast, pre-solve, warm start (DESIGN.md §9).
    planner: RecedingHorizonPlanner | None = None
    # Graceful-degradation ladder for a sagging power feed (DESIGN.md §10).
    shed: ShedController | None = None

    # Observability (DESIGN.md §8).  Enabled, the round's span, events and
    # instruments are one stage owner's (``round_telemetry``); with the shared
    # NULL instance there is none and the handlers' counters are no-ops.
    telemetry: Telemetry = field(default=NULL_TELEMETRY)
    # Round observers (:mod:`repro.invariants`): each is called with the
    # finished BudgetRound, after everything else; none, no stage.
    monitors: Sequence[Callable[[BudgetRound], None]] = ()

    # State, not configuration: what the manager has learned.  What it
    # decides is counted once, in the registry (``anor_*_total``).
    # The hold-last-good filter every round's feed reading passes through:
    # a raising or NaN-emitting feed degrades to hold-last-with-decay
    # instead of crashing the control loop.
    target_hold: HoldLastGoodTarget = field(init=False)
    jobs: dict[str, JobRecord] = field(default_factory=dict, init=False)
    events: list[str] = field(default_factory=list, init=False)
    last_round: BudgetRound | None = field(default=None, init=False)
    # What rounds hand back for AnorSystem to enforce (it drains the list):
    # ``(action, job_id)`` with ``orphan`` (silent past the recovery deadline)
    # or ``preempt`` / ``kill`` (shed ladder); and whether launches are held.
    enforcement: list[tuple[str, str]] = field(default_factory=list, init=False)
    admission_held: bool = field(default=False, init=False)
    # Recovery mode: reconnects that merged checkpointed state back in, and
    # the reconnect deadline (a job awaiting its re-HELLO is a linkless record).
    recovery_merges: int = field(default=0, init=False)
    # Re-HELLOs whose degraded-history model was validated and adopted
    # (partition recovery path — distinct from checkpoint recovery_merges).
    hello_merges: int = field(default=0, init=False)
    _recovery_deadline: float | None = field(default=None, init=False)
    _links: list[TcpLink] = field(default_factory=list, init=False)
    _correction: float = field(default=0.0, init=False)

    def __post_init__(self) -> None:
        self.target_hold = HoldLastGoodTarget(floor=self.total_nodes * P_NODE_MIN)
        # The message handlers' counters: no-ops from a disabled registry.
        reg = self.telemetry.registry
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
        tel = None
        if self.telemetry.enabled:
            from repro.telemetry.round import RoundTelemetry

            tel = RoundTelemetry(self.telemetry, self.budgeter.name)
        self.round_telemetry = tel
        # The round (DESIGN.md §4h): every stage takes the BudgetRound; a
        # feature that is off contributes no entry.
        self._stages = [stage for stage in (
            tel and tel.open_round,
            self._drain_messages,
            self._evict_dead,
            self._reconcile_recovery,
            self._read_target,
            self.shed is not None and self.shed.observe_stage,
            tel and tel.trace_target,
            self.planner is not None and self.planner.observe_stage,
            self._read_meter,
            self.breaker is not None and self.breaker.observe_stage,
            self._budget,
            self.journal is not None and self._journal_caps,
            self._publish,
            tel and tel.close_round,
            bool(self.monitors) and self._observe,
        ) if stage]
        # Run by ``_budget`` when a job is connected or recovering.
        self._budget_stages = [stage for stage in (
            self._triage,
            tel and tel.open_budget,
            self.auditor is not None and self.auditor.audit_stage,
            self._reserve,
            self.auditor is not None and self.auditor.reserve_stage,
            self.planner is not None and self.planner.dispatch_stage,
            self._solve,
            self.planner is not None and self.planner.rebuild_stage,
            tel and tel.close_budget,
            self.breaker is not None and self.breaker.clamp_stage,
            self.shed is not None and self.shed.apply_stage,
            self._dispatch,
            tel and tel.trace_caps,
        ) if stage]

    # ------------------------------------------------------------- plumbing

    def _journal(self, rtype: str, now: float, **data) -> None:
        if self.journal is not None:
            self.journal.append(rtype, now, data)
            self._mx_journal_records.inc()

    def _report(
        self, now: float, text: str, category: str | None = None, **attrs
    ) -> None:
        """The one emission site for an ``events`` line and, when it has a
        category, its bus incident: the two streams cannot disagree."""
        self.events.append(f"t={now:.1f} {text}")
        if category is not None and self.telemetry.enabled:
            self.telemetry.incident(category, now, **attrs)

    def _event(self, name: str, now: float, **attrs) -> None:
        if self.telemetry.enabled:
            self.telemetry.bus.event(name, now, **attrs)

    def register_link(self, link: TcpLink) -> None:
        """Accept a new job endpoint connection."""
        self._links.append(link)

    def _drain_messages(self, rnd: BudgetRound) -> None:
        # The handlers' events parent themselves to the round's span.
        now, self._round_span = rnd.time, rnd.span
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
        # Known before — restored from the checkpoint a restarted head loaded
        # (no link yet), else over the link this one replaces: merge its model
        # and budget accounting so the cluster tier resumes warm instead of
        # relearning the curve.  An endpoint restart must not cost it either:
        # the job itself never stopped running.
        known = self.jobs.get(msg.job_id)
        restored = known is not None and known.link is None
        if known is not None and not restored and known.link is not link:
            # The job reconnected over a fresh link (endpoint restart or
            # requeue after a node crash); drop the dead one immediately
            # rather than waiting for the dead-job timeout.
            if known.link in self._links:
                self._links.remove(known.link)
            known.link.close("replaced")
            self._report(now, f"{msg.job_id}: reconnected, replaced stale link")
        # The believed power ceiling is where the believed model flattens out;
        # the platform cannot cap above P_NODE_MAX regardless.
        record = JobRecord(
            job_id=msg.job_id,
            claimed_type=msg.claimed_type,
            nodes=msg.nodes,
            link=link,
            believed_model=believed,
            believed_p_max=min(believed.p_max, P_NODE_MAX),
            last_heard=now,
        )
        if known is not None:
            record.online_model = known.online_model
            record.online_r2 = known.online_r2
            record.last_cap = known.last_cap
            record.caps_sent = known.caps_sent
        if restored:
            # Re-inserted below, behind the records still awaiting theirs.
            del self.jobs[msg.job_id]
            self.recovery_merges += 1
            self._report(
                now,
                f"{msg.job_id}: reconciled after head-node restart "
                f"(model {'restored' if known.online_model is not None else 'none'})",
            )
            if self._recovery_deadline is not None and all(
                r.link is not None for r in self.jobs.values()
            ):
                self._report(now, "recovery complete: all jobs reconciled")
                self._recovery_deadline = None
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
                self._report(
                    now,
                    f"{msg.job_id}: warm-merged degraded-mode model "
                    f"({msg.degraded_seconds:.1f}s of autonomy)",
                    "degraded-rejoin",
                    job_id=msg.job_id,
                    degraded_seconds=msg.degraded_seconds,
                )
            else:
                self._mx_models_rejected.inc()
        self.jobs[msg.job_id] = record
        self._event(
            "job-hello",
            now,
            job_id=msg.job_id,
            claimed_type=msg.claimed_type,
            nodes=msg.nodes,
            reconnect=known is not None and not restored,
            recovered=restored,
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
        if record is None or record.link is None:
            return  # status raced past the goodbye or the HELLO; ignore
        # Any arrival proves the endpoint process is alive, even if the
        # payload is garbage — heartbeat first, validation second.
        record.last_heard = now
        if not (
            math.isfinite(msg.measured_power)
            and msg.measured_power >= 0.0
            and math.isfinite(msg.applied_cap)
            and msg.applied_cap > 0.0
        ):
            self._mx_statuses_rejected.inc()
            self._report(
                now,
                f"{msg.job_id}: rejected corrupt status "
                f"(power={msg.measured_power}, cap={msg.applied_cap})",
                "status-rejected",
                job_id=msg.job_id,
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
            if msg.model_r2 is None or not (msg.model_r2 < MIN_FEEDBACK_R2):
                model = self._validated_model(msg, record)
                if model is None:
                    self._mx_models_rejected.inc()
                    self._event(
                        "model-reject",
                        now,
                        parent=self._round_span or None,
                        job_id=msg.job_id,
                    )
                    self._report(
                        now,
                        f"{msg.job_id}: rejected model coefficients "
                        f"(a={msg.model_a}, b={msg.model_b}, c={msg.model_c})",
                    )
                else:
                    record.online_model = model
                    record.online_r2 = msg.model_r2
                    self._record_fit(record, now)

    def _record_fit(self, record: JobRecord, now: float) -> None:
        """Count, announce and journal the fit ``record`` just adopted."""
        model, r2 = record.online_model, record.online_r2
        self._mx_models_accepted.inc()
        self._event(
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
            p_min=P_NODE_MIN,
            p_max=record.believed_p_max,
        )
        if not model.is_monotone_decreasing() or model.t_min <= 0:
            return None
        return model

    def _on_goodbye(self, msg: GoodbyeMessage, link: TcpLink, now: float) -> None:
        record = self.jobs.get(msg.job_id)
        if record is not None and record.link is not None:
            del self.jobs[msg.job_id]
            self._event("job-goodbye", now, job_id=msg.job_id)
            self._journal("job-evict", now, job_id=msg.job_id, kind="goodbye")
        if link in self._links:
            self._links.remove(link)
        link.close("goodbye")

    def _evict_dead(self, rnd: BudgetRound) -> None:
        """Garbage-collect jobs silent past the dead-job timeout.

        Covers every way a job can vanish without a goodbye reaching us: the
        goodbye dropped on a lossy link, the endpoint process crashed, or
        the node crashed and took the whole job with it.
        """
        now = rnd.time
        dead = [
            job_id
            for job_id, record in self.jobs.items()
            if record.link is not None and now - record.last_heard > DEAD_JOB_TIMEOUT
        ]
        for job_id in dead:
            record = self.jobs.pop(job_id)
            if record.link in self._links:
                self._links.remove(record.link)
            record.link.close("evicted")
            self._mx_evictions.inc()
            silent_for = now - record.last_heard
            self._report(
                now,
                f"{job_id}: evicted after {silent_for:.1f}s of silence",
                "job-evicted",
                job_id=job_id,
                silent_for=silent_for,
            )
            self._journal("job-evict", now, job_id=job_id, kind="timeout")

    # ------------------------------------------------------------- recovery

    def begin_recovery(self, now: float, recovered: dict[str, JobRecord]) -> None:
        """Enter bounded recovery mode after a head-node restart.

        Each restored job joins ``jobs`` as the linkless record it is, in
        ``recovered``'s order, and stays a conservative liability — its last
        sent cap (× nodes) reserved, no budget granted — until it re-HELLOs
        over a fresh link or the reconnect window closes, whichever comes
        first.  Jobs still silent at the deadline are declared orphans: they
        died during the outage (or their endpoint did; the node-local
        watchdog brings those back later as ordinary new connections).
        """
        self.jobs.update(recovered)
        self._recovery_deadline = now + RECOVERY_TIMEOUT
        self._report(
            now,
            f"recovery mode: {len(recovered)} job(s) to reconcile, "
            f"deadline t={self._recovery_deadline:.1f}",
        )

    @property
    def in_recovery(self) -> bool:
        return self._recovery_deadline is not None

    def _reconcile_recovery(self, rnd: BudgetRound) -> None:
        """Close the reconnect window when due.  The last stage to move the
        job table, so it also says whether anything is left to budget."""
        now = rnd.time
        if self._recovery_deadline is not None and now >= self._recovery_deadline:
            for job_id in sorted(j for j, r in self.jobs.items() if r.link is None):
                del self.jobs[job_id]
                rnd.actions.append(("orphan", job_id))
                self._report(
                    now,
                    f"{job_id}: recovery orphan "
                    f"(no reconnect before t={self._recovery_deadline:.1f})",
                    "recovery-orphan",
                    job_id=job_id,
                )
                self._journal("job-evict", now, job_id=job_id, kind="orphan")
            self._recovery_deadline = None
            self._report(now, "recovery window closed")
        rnd.occupied = bool(self.jobs)

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

    def step(self, now: float, feed: float, measured: float) -> dict[str, float]:
        """One manager period: drain messages, budget, send caps.

        ``feed`` is the facility's target reading and ``measured`` the
        metered cluster power (W), each NaN when it could not be read.
        Returns the per-job node caps chosen this round (empty when no jobs
        are connected).
        """
        rnd = BudgetRound(
            time=now,
            jobs=self.jobs,
            report=self._report,
            feed=feed,
            measured=measured,
        )
        for stage in self._stages:
            stage(rnd)
        return rnd.caps

    # ------------------------------------------------- stages of every round

    def _read_target(self, rnd: BudgetRound) -> None:
        rnd.target = self.target_hold.read(rnd.time, rnd.feed)

    def _read_meter(self, rnd: BudgetRound) -> None:
        measured, target = rnd.measured, rnd.target
        if math.isfinite(measured):
            # Only a round that budgets a job moves the draw the trim corrects:
            # integrating an empty one winds the trim up against idle power.
            if self.correction_gain > 0 and rnd.occupied:
                # No NaN reaches the clamp: the meter is finite here, and the
                # target is finite and positive (the hold-last-good filter,
                # lowered at most to the shed ladder's ceiling of earlier
                # targets), so the limit is too.
                limit = CORRECTION_LIMIT_FRACTION * target
                trim = self._correction + self.correction_gain * (target - measured)
                self._correction = min(max(trim, -limit), limit)
        else:
            # Meter outage: no sample, and the integral term holds its
            # last value rather than winding up against garbage.
            self._mx_meter_faults.inc()
            if self.telemetry.enabled:
                self.telemetry.incident("meter-fault", rnd.time)
        rnd.correction = self._correction

    def _budget(self, rnd: BudgetRound) -> None:
        if rnd.occupied:
            for stage in self._budget_stages:
                stage(rnd)

    def _journal_caps(self, rnd: BudgetRound) -> None:
        """Every round moves the trim and the target hold, and a budgeted
        one the caps: one record carries them all (no caps when no job was
        budgeted)."""
        self._journal(
            "cap-decision",
            rnd.time,
            caps=rnd.caps,
            correction=rnd.correction,
            target=rnd.target,
            hold=self.target_hold.state_dict(),
        )

    def _publish(self, rnd: BudgetRound) -> None:
        """What outlives the round: its accounting, unless no job was there
        to budget, and what the framework is to enforce."""
        self.last_round = rnd if rnd.occupied else None
        self.enforcement += rnd.actions
        self.admission_held = rnd.admission_held

    def _observe(self, rnd: BudgetRound) -> None:
        for monitor in self.monitors:
            monitor(rnd)

    # ------------------------------------------------- stages of a budgeting

    def _triage(self, rnd: BudgetRound) -> None:
        """Occupancy, then each job's budgeting class."""
        now = rnd.time
        busy_nodes = sum(r.nodes for r in self.jobs.values())
        idle_nodes = max(0, self.total_nodes - busy_nodes)
        rnd.idle_power = idle_nodes * IDLE_NODE_POWER
        rnd.available = max(rnd.target - rnd.idle_power + rnd.correction, 1.0)
        # Triage (§7.2 plus fault hardening):
        # * recovering — restored, no re-HELLO yet: presumed alive, its nodes
        #   busy and its last cap reserved, so planned draw stays under target
        #   while the cluster re-discovers itself;
        # * stale — silent beyond the staleness timeout: its online fit and
        #   last status can no longer be trusted, so reserve what it may
        #   still be drawing (its last cap) and send the floor cap;
        # * dormant — heard recently but drawing idle-level power
        #   (setup/teardown): budget it at what it actually consumes;
        # * active — budget normally.
        rnd.recovering, rnd.stale, rnd.dormant, rnd.active = (
            recovering, stale, dormant, active) = [], [], [], []
        for record in sorted(self.jobs.values(), key=lambda r: r.job_id):
            status = record.last_status
            threshold = record.nodes * IDLE_NODE_POWER * 1.5
            if record.link is None:
                recovering.append(record)
            elif now - record.last_heard > STALE_STATUS_TIMEOUT:
                stale.append(record)
            elif status is None or status.measured_power < threshold:
                dormant.append(record)
            else:
                active.append(record)
        # Each active job's request, rebuilt only when what it holds moved:
        # the budgeter keeps its solve while the same objects come back.
        rnd.requests = requests = []
        for r in active:
            q, model = r.request, r.active_model
            if (q is None or q.model is not model or q.p_max != r.believed_p_max
                    or q.nodes != r.nodes):
                q = r.request = JobBudgetRequest(
                    r.job_id, r.nodes, model, P_NODE_MIN, r.believed_p_max)
            requests.append(q)

    def _reserve(self, rnd: BudgetRound) -> None:
        reserved = 0.0
        for record in (*rnd.recovering, *rnd.stale):
            # Silent: its last sent cap is all that bounds its draw.
            assumed_cap = (
                record.last_cap if record.last_cap is not None else record.believed_p_max
            )
            reserved += record.nodes * assumed_cap
        for record in rnd.stale:
            rnd.caps[record.job_id] = P_NODE_MIN
        for record in rnd.dormant:
            drawn = (
                record.last_status.measured_power
                if record.last_status is not None
                else record.nodes * IDLE_NODE_POWER
            )
            reserved += drawn
            rnd.caps[record.job_id] = P_NODE_MIN
        rnd.reserved = reserved

    def _solve(self, rnd: BudgetRound) -> None:
        """Caps for the active jobs: the allocation an earlier stage left
        (the planner's warm start), else the budgeter's on the round's pool."""
        if not rnd.requests:
            return
        if rnd.allocation is None:
            rnd.allocation = self.budgeter.allocate(rnd.requests, rnd.pool)
        caps = rnd.allocation.caps
        rnd.caps.update(caps)
        rnd.allocated = sum(caps[r.job_id] * r.nodes for r in rnd.active)

    def _dispatch(self, rnd: BudgetRound) -> None:
        now = rnd.time
        for record in self.jobs.values():
            if record.link is None:
                continue
            cap = rnd.caps[record.job_id]
            if cap != record.last_cap:
                rnd.rewrites += 1
            record.link.send_down(
                BudgetMessage(
                    job_id=record.job_id,
                    power_cap_node=cap,
                    timestamp=now,
                    lease_ttl=self.lease_ttl,
                ),
                now,
            )
            record.caps_sent += 1
            record.last_cap = cap
