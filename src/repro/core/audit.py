"""Trust boundary between the cluster tier and the job tier (DESIGN.md §4f).

The cluster manager budgets from information the job tier *reports*: the
online power model shipped in status messages, the self-metered power used
for dormancy triage, and the implicit promise that a dispatched cap is
actually applied.  ``_validated_model`` only rejects syntactically broken
fits — a Byzantine or buggy endpoint that ships a plausible-but-false
curve, drifts its meter, or silently ignores cap writes can make the
budgeter oversubscribe the facility target indefinitely.

:class:`CapComplianceAuditor` closes that hole with out-of-band evidence:
the hwsim per-node energy counters (the facility's metering plane, which a
job endpoint cannot touch).  Each control round it maintains, per job,

* a **metered-power window** — cumulative joules over the job's nodes,
  differenced over ``AUDIT_WINDOW`` seconds.  Windowing smooths epoch-periodic
  power waves; only *over*-draw violates, so setup/teardown phases (idle
  draw well below the cap) never trigger.
* a **cap-compliance check** — windowed W/node against the *largest* cap
  dispatched inside the window (largest, so a cap lowered mid-window is
  not retroactively enforced against power drawn under the old cap), with
  a relative ``CAP_TOLERANCE`` plus an absolute ``GUARDBAND``.
* a **meter cross-check** — the job's self-reported ``measured_power``
  against the out-of-band metered draw, while the job is demonstrably
  active (metered draw above the platform floor); catches meter drift.
* a **model-plausibility replay** — observed seconds/epoch over the window
  (from status epoch counts) against the shipped model evaluated at the
  window's mean applied cap, *vetoed* by a regime-consistency test.
  Honest online fits are routinely 30–65 % off in absolute seconds/epoch
  away from the caps they were trained at (dither-only coverage forces
  extrapolation, and the manager can hold a stale high-cap fit long after
  a job is squeezed to the floor), so a point comparison alone cannot
  separate honest-but-stale from lying.  What separates them: an honest
  fit was accurate in *some* cap regime the job has actually visited,
  while a fabricated curve describes a machine the job has never been.
  The auditor therefore accumulates a per-job empirical map of cap-bucket
  → mean observed seconds/epoch over the job's audited lifetime and only
  flags a window mismatch when the shipped model also disagrees (at twice
  the window tolerance) with **every** populated bucket.  Limitations,
  accepted by design: progress counts are taken at face value (epochs are
  app-observable artifacts — checkpoints, output files — and much harder
  to fake than a coefficient), and a "steep" lie that is locally accurate
  at the caps it lobbies to run at survives this check; exposing it needs
  deliberate cap excursions (probing), not passive replay.

Evidence feeds a per-job trust state machine::

    trusted --violation--> suspect --N consecutive--> quarantined
       ^                      |                           |
       |<----clean rounds-----+                 compliant with probe caps
       |                                                  v
       +-----------clean rounds------------------- rehabilitating
                                                    (any violation
                                                     -> quarantined)

A quarantined job is budgeted at a conservative envelope — its *metered*
draw plus ``GUARDBAND`` W/node, never its self-reported model — and the
headroom it was stealing is redistributed to trusted jobs by the ordinary
budgeter.  Its dispatched cap becomes a **probe ratchet**: metered W/node
scaled down by ``PROBE_MARGIN``.  A compliant actuator follows the probe
down (geometric decay toward the platform floor ⇒ sustained compliance ⇒
rehabilitation), a stuck actuator does not and stays quarantined.

The auditor lives entirely inside ``ClusterPowerManager.step`` (the
manager gate), so the event-calendar stepper's stride planning is
unaffected and ticking/event modes stay bit-identical.  It is rebuilt on
head-node restart (trust state is deliberately *not* checkpointed: a new
head re-earns evidence rather than trusting a stale verdict).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Optional

from repro.telemetry import NULL_TELEMETRY
from repro.workloads.nas import P_NODE_MAX, P_NODE_MIN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.round import BudgetRound, JobRecord

__all__ = [
    "TRUSTED",
    "SUSPECT",
    "QUARANTINED",
    "REHABILITATING",
    "TRUST_STATES",
    "TrustTransition",
    "CapComplianceAuditor",
]

TRUSTED = "trusted"
SUSPECT = "suspect"
QUARANTINED = "quarantined"
REHABILITATING = "rehabilitating"

#: All trust states with their ``anor_endpoint_trust_state`` gauge encoding.
TRUST_STATES: dict[str, int] = {
    TRUSTED: 0,
    SUSPECT: 1,
    QUARANTINED: 2,
    REHABILITATING: 3,
}

#: Jobs whose self-reported model must not be budgeted from.
_DISTRUSTED = frozenset({QUARANTINED, REHABILITATING})

#: Cap-bucket width (W/node) for the empirical seconds/epoch map.
_BUCKET_WIDTH = 20.0

#: Intervals a bucket needs before it counts as a visited regime.
_BUCKET_MIN_INTERVALS = 3

#: A model "matches" a visited regime when it is within this multiple of
#: the window tolerance there — lenient on purpose, so fit noise at the
#: training caps never strips an honest model of its alibi.
_REGIME_SLACK = 2.0

# The checks' thresholds: the byzantine drill's and the chaos soak's claims
# are scored at these values (DESIGN.md §4f).
#: Seconds of metering each window differences over (s): long enough to
#: smooth epoch-periodic power waves; also the warmup before any verdict.
AUDIT_WINDOW = 30.0
#: Overdraw tolerated above the largest cap in the window: a fraction of it
#: plus an absolute margin (W/node).  The margin also pads a quarantined
#: job's reservation above its metered draw.
CAP_TOLERANCE = 0.10
GUARDBAND = 20.0
#: Self-reported against metered draw, as a fraction of the metered draw.
MISMATCH_TOLERANCE = 0.25
#: Observed against modelled seconds/epoch, as a fraction of the model's.
MODEL_ERROR = 0.35
#: Epochs a window must span before the model replay gives a verdict.
MIN_REPLAY_EPOCHS = 3
#: Consecutive violating rounds that turn suspect into quarantined, clean
#: rounds that release quarantine into rehabilitation, and clean rounds that
#: restore trust from suspect or rehabilitating.
SUSPECT_ROUNDS = 3
QUARANTINE_ROUNDS = 5
CLEAR_ROUNDS = 5
#: The probe ratchet: a quarantined job's cap is its metered W/node shaved by
#: this fraction, so a compliant actuator visibly follows it down.
PROBE_MARGIN = 0.15

#: A meter reading: (cumulative joules over the job's nodes, node-id key),
#: or None when the job is not currently on the cluster.
JobMeter = Callable[[str], Optional[tuple[float, tuple[int, ...]]]]


@dataclass(frozen=True)
class TrustTransition:
    """One edge taken by a job's trust state machine."""

    time: float
    job_id: str
    old: str
    new: str
    reason: str


class _Window:
    """One audited series, newest last: sample times beside the values, so
    ``max`` and ``sum`` over the values run in C."""

    __slots__ = ("times", "values")

    def __init__(self) -> None:
        self.times: deque = deque()
        self.values: deque = deque()

    def __len__(self) -> int:
        return len(self.times)

    def append(self, t: float, value) -> None:
        self.times.append(t)
        self.values.append(value)

    def clear(self) -> None:
        self.times.clear()
        self.values.clear()

    def trim(self, horizon: float) -> None:
        """Drop samples older than the window, keeping one at or before
        ``horizon`` so the differenced span always covers it once warm."""
        times, values = self.times, self.values
        while len(times) >= 2 and times[1] <= horizon:
            times.popleft()
            values.popleft()


@dataclass
class _JobAudit:
    """Per-job windows and state-machine bookkeeping."""

    state: str = TRUSTED
    node_key: tuple[int, ...] = ()
    # Cumulative joules over the job's nodes.
    energy: _Window = field(default_factory=_Window)
    # Dispatched cap (W/node) in force during the elapsed interval.
    caps: _Window = field(default_factory=_Window)
    # Self-reported measured_power (W) from status messages.
    reported: _Window = field(default_factory=_Window)
    # Epoch count and applied cap at each status timestamp, deduped by it.
    epochs: _Window = field(default_factory=_Window)
    applied: _Window = field(default_factory=_Window)
    violation_streak: int = 0
    clean_streak: int = 0
    last_metered: float | None = None  # windowed W over all job nodes
    # Lifetime empirical regime map: cap bucket -> [sum tpe, intervals].
    # Deliberately *not* part of reset_windows — behaviour per cap is a
    # property of the job, not of the nodes it happens to occupy.
    buckets: dict = field(default_factory=dict)
    # (timestamp, epoch_count) of the last interval boundary accumulated
    # into ``buckets``; re-anchored whenever progress goes backwards
    # (requeue restarts the application's epoch counter).
    prev_progress: tuple | None = None

    def reset_windows(self) -> None:
        self.energy.clear()
        self.caps.clear()
        self.reported.clear()
        self.epochs.clear()
        self.applied.clear()
        self.last_metered = None


class CapComplianceAuditor:
    """Audits job-tier compliance from out-of-band metering each round.

    ``AnorConfig.audit_enabled`` builds one; see the module docstring for
    the checks and the state machine the module's thresholds drive.
    """

    def __init__(
        self,
        *,
        job_meter: JobMeter,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        self.job_meter = job_meter
        self.telemetry = telemetry
        self._jobs: dict[str, _JobAudit] = {}
        self.transitions: list[TrustTransition] = []
        self.violations_total = 0
        self.quarantines_total = 0
        if self.telemetry.enabled:
            reg = self.telemetry.registry
            self._mx_state: dict[str, object] = {}
            self._mx_violations = {
                kind: reg.counter(
                    "anor_audit_violations_total",
                    "audit violations observed, by check",
                    kind=kind,
                )
                for kind in ("cap-overdraw", "meter-mismatch",
                             "model-implausible", "probe-noncompliant")
            }

    # --------------------------------------------------------------- queries

    def state(self, job_id: str) -> str:
        """Current trust state for ``job_id`` (unknown jobs are trusted)."""
        audit = self._jobs.get(job_id)
        return audit.state if audit is not None else TRUSTED

    # ---------------------------------------------------------- round update

    def audit_stage(self, rnd: "BudgetRound") -> None:
        """Round stage, after triage and before anything is reserved, so
        that this round's verdicts shape this round's budget."""
        for text in self.audit_round(rnd.time, rnd.jobs):
            rnd.report(rnd.time, text)
        # After ``audit_round`` the auditor's table holds exactly the linked
        # jobs of the manager's, so one pass over it finds everyone distrusted.
        distrusted = {
            job_id: audit.state == QUARANTINED
            for job_id, audit in self._jobs.items()
            if audit.state in _DISTRUSTED
        }
        if not distrusted:
            return
        # Quarantined jobs leave their triage class.  A rehabilitating job is
        # budgeted again, but from the believed (facility-side) model — its
        # self-reported fit stays distrusted until it re-earns trusted status.
        held = {job_id for job_id, quarantined in distrusted.items() if quarantined}
        rnd.quarantined = [rnd.jobs[j] for j in sorted(held)]
        for group in (rnd.stale, rnd.dormant, rnd.active):
            group[:] = [r for r in group if r.job_id not in held]
        # ``_replace`` skips the request's validating ``__new__``; the model
        # is not a field it checks.
        rnd.requests = [
            q._replace(model=rnd.jobs[q.job_id].believed_model)
            if q.job_id in distrusted else q
            for q in rnd.requests
            if q.job_id not in held
        ]

    def reserve_stage(self, rnd: "BudgetRound") -> None:
        """Round stage, after the manager's own reservations."""
        # Conservative envelope: reserve the job's *metered* draw plus the
        # guardband (never its self-reported model) and dispatch the probe
        # cap.  The headroom it was claiming flows back into the pool for
        # trusted jobs.
        for record in rnd.quarantined:
            envelope, probe_cap = self.envelope(record)
            rnd.reserved += envelope
            rnd.caps[record.job_id] = probe_cap

    def audit_round(self, now: float, jobs: dict[str, "JobRecord"]) -> list[str]:
        """Ingest this round's evidence and advance every state machine.

        Takes the manager's job table, less its linkless (recovering) records;
        returns one transition description per edge taken, for the event log.
        """
        lines: list[str] = []
        for job_id in list(self._jobs):
            if job_id not in jobs or jobs[job_id].link is None:
                self._forget(job_id)
        for job_id in sorted(jobs):
            record = jobs[job_id]
            if record.link is None:
                continue
            audit = self._jobs.get(job_id)
            if audit is None:
                audit = self._jobs[job_id] = _JobAudit()
            reading = self.job_meter(job_id)
            if reading is None:
                # Between requeues / not yet started: no metering plane to
                # audit against, so evidence restarts when the job lands.
                audit.reset_windows()
                continue
            energy, node_key = reading
            if node_key != audit.node_key:
                # Requeued onto different nodes: cumulative counters are
                # incomparable across node sets.
                audit.reset_windows()
                audit.node_key = node_key
            self._ingest(audit, record, now, energy)
            span = audit.energy.times[-1] - audit.energy.times[0]
            if span < AUDIT_WINDOW:
                continue  # warmup: tolerate setup phases and cold windows
            violations = self._evaluate(audit, record, now, len(node_key))
            line = self._advance(audit, job_id, now, violations)
            if line is not None:
                lines.append(line)
            if self.telemetry.enabled:
                self._gauge(job_id).set(TRUST_STATES[audit.state])
        return lines

    def _ingest(
        self, audit: _JobAudit, record: "JobRecord", now: float, energy: float
    ) -> None:
        """Append this round's samples and trim everything to the window."""
        audit.energy.append(now, float(energy))
        if record.last_cap is not None:
            # last_cap is the cap dispatched *last* round — i.e. the cap in
            # force during the interval that just elapsed.
            audit.caps.append(now, float(record.last_cap))
        status = record.last_status
        if status is not None:
            audit.reported.append(now, float(status.measured_power))
            if not audit.epochs or status.timestamp > audit.epochs.times[-1]:
                audit.epochs.append(status.timestamp, status.epoch_count)
                audit.applied.append(status.timestamp, status.applied_cap)
                self._accumulate_regime(
                    audit, status.timestamp, status.epoch_count,
                    status.applied_cap,
                )
        horizon = now - AUDIT_WINDOW
        for window in (audit.energy, audit.caps, audit.reported, audit.epochs, audit.applied):
            window.trim(horizon)

    @staticmethod
    def _accumulate_regime(
        audit: _JobAudit, timestamp: float, epochs: int, cap: float
    ) -> None:
        """Fold one progress interval into the lifetime regime map."""
        prev = audit.prev_progress
        if prev is None or epochs < prev[1] or timestamp <= prev[0]:
            # First sighting, or the application restarted (requeue resets
            # the epoch counter): anchor without attributing an interval.
            audit.prev_progress = (timestamp, epochs)
            return
        d_epochs = epochs - prev[1]
        if d_epochs < 1:
            return  # no progress yet; extend the open interval
        tpe = (timestamp - prev[0]) / d_epochs
        audit.prev_progress = (timestamp, epochs)
        bucket = int(cap // _BUCKET_WIDTH)
        stats = audit.buckets.get(bucket)
        if stats is None:
            audit.buckets[bucket] = [tpe, 1]
        else:
            stats[0] += tpe
            stats[1] += 1

    def _regime_alibi(self, audit: _JobAudit, model) -> bool:
        """True when the model matches *some* cap regime the job has visited.

        The match tolerance is ``_REGIME_SLACK`` times the window tolerance:
        the question here is not "is the fit accurate" but "has this curve
        ever described this job" — only a curve wrong everywhere it has
        been observed loses its alibi.
        """
        bound = _REGIME_SLACK * MODEL_ERROR
        populated = False
        for bucket, (total, count) in audit.buckets.items():
            if count < _BUCKET_MIN_INTERVALS:
                continue
            populated = True
            empirical = total / count
            center = (bucket + 0.5) * _BUCKET_WIDTH
            predicted = float(model.time_per_epoch(center))
            if predicted > 0 and abs(empirical - predicted) <= bound * predicted:
                return True
        # No populated bucket at all: too little evidence to convict.
        return not populated

    # ------------------------------------------------------------ the checks

    def _evaluate(
        self, audit: _JobAudit, record: "JobRecord", now: float, nodes: int
    ) -> list[str]:
        """Run all applicable checks; return the violated check names."""
        energy = audit.energy
        t0, t1 = energy.times[0], energy.times[-1]
        metered = (energy.values[-1] - energy.values[0]) / (t1 - t0)  # W, all nodes
        audit.last_metered = metered
        per_node = metered / max(nodes, 1)
        violations: list[str] = []

        if audit.caps:
            ref_cap = max(audit.caps.values)
            if audit.state in _DISTRUSTED:
                # Probe-compliance: while distrusted, the dispatched caps
                # are the ratcheting probe; no absolute guardband, so a
                # stuck actuator cannot hide inside it.
                if per_node > ref_cap * (1.0 + CAP_TOLERANCE):
                    violations.append("probe-noncompliant")
            elif per_node > ref_cap * (1.0 + CAP_TOLERANCE) + GUARDBAND:
                violations.append("cap-overdraw")

        # Meter cross-check: only while demonstrably active — relative
        # comparisons at idle/setup/teardown draw are meaningless.
        if audit.reported and per_node >= P_NODE_MIN * 0.9:
            mean_rep = sum(audit.reported.values) / len(audit.reported)
            if abs(mean_rep - metered) > MISMATCH_TOLERANCE * metered:
                violations.append("meter-mismatch")

        model = record.online_model
        if model is not None and len(audit.epochs) >= 2:
            epochs = audit.epochs
            ts0, ts1 = epochs.times[0], epochs.times[-1]
            d_epochs = epochs.values[-1] - epochs.values[0]
            if d_epochs >= MIN_REPLAY_EPOCHS and ts1 > ts0:
                observed = (ts1 - ts0) / d_epochs
                mean_cap = sum(audit.applied.values) / len(audit.applied)
                predicted = float(model.time_per_epoch(mean_cap))
                if (
                    predicted > 0
                    and abs(observed - predicted) > MODEL_ERROR * predicted
                    and not self._regime_alibi(audit, model)
                ):
                    violations.append("model-implausible")
        return violations

    # ------------------------------------------------------- state machine

    def _advance(
        self, audit: _JobAudit, job_id: str, now: float, violations: list[str]
    ) -> str | None:
        """One state-machine step; returns an event-log line on transition."""
        if violations:
            audit.violation_streak += 1
            audit.clean_streak = 0
            self.violations_total += len(violations)
            if self.telemetry.enabled:
                for kind in violations:
                    self._mx_violations[kind].inc()
        else:
            audit.clean_streak += 1
            audit.violation_streak = 0

        old = audit.state
        reason = ",".join(violations) if violations else "compliant"
        if old == TRUSTED:
            if violations:
                audit.state = SUSPECT
        elif old == SUSPECT:
            if audit.violation_streak >= SUSPECT_ROUNDS:
                audit.state = QUARANTINED
            elif audit.clean_streak >= CLEAR_ROUNDS:
                audit.state = TRUSTED
        elif old == QUARANTINED:
            if audit.clean_streak >= QUARANTINE_ROUNDS:
                audit.state = REHABILITATING
        elif old == REHABILITATING:
            if violations:
                audit.state = QUARANTINED
            elif audit.clean_streak >= CLEAR_ROUNDS:
                audit.state = TRUSTED
        if audit.state == old:
            return None
        # Streaks restart at every edge: evidence for the new verdict must
        # be earned under the new regime (e.g. probe caps, not old caps).
        audit.violation_streak = 0
        audit.clean_streak = 0
        return self._record(now, job_id, old, audit.state, reason)

    def _record(
        self, now: float, job_id: str, old: str, new: str, reason: str
    ) -> str:
        self.transitions.append(TrustTransition(now, job_id, old, new, reason))
        if new == QUARANTINED:
            self.quarantines_total += 1
        if self.telemetry.enabled:
            self.telemetry.incident(
                f"trust-{new}", now, job_id=job_id, previous=old, reason=reason
            )
            self._gauge(job_id).set(TRUST_STATES[new])
        return f"{job_id}: trust {old} -> {new} ({reason})"

    def force_state(
        self, job_id: str, new: str, now: float = 0.0, reason: str = "forced"
    ) -> None:
        """Operator/test override: move a job to ``new`` unconditionally."""
        if new not in TRUST_STATES:
            raise ValueError(
                f"unknown trust state {new!r}; known: {sorted(TRUST_STATES)}")
        audit = self._jobs.setdefault(job_id, _JobAudit())
        old = audit.state
        audit.state = new
        audit.violation_streak = 0
        audit.clean_streak = 0
        if new != old:
            self._record(now, job_id, old, new, reason)

    # ------------------------------------------------------------ budgeting

    def envelope(self, record: "JobRecord") -> tuple[float, float]:
        """(reserved watts, dispatched cap) for a quarantined job.

        The reservation is the job's *metered* draw plus the guardband per
        node — what it demonstrably pulls, never what it claims.  The cap
        is the probe ratchet (metered W/node shaved by ``PROBE_MARGIN``,
        clamped to the platform range): compliant actuators follow it down
        and rehabilitate; stuck ones stay visibly non-compliant.
        """
        audit = self._jobs.get(record.job_id)
        nodes = max(record.nodes, 1)
        if audit is not None and audit.last_metered is not None:
            metered = audit.last_metered
        elif record.last_cap is not None:
            metered = record.last_cap * nodes  # no window yet: assume cap
        else:
            metered = record.believed_p_max * nodes
        reserved = metered + GUARDBAND * nodes
        per_node = metered / nodes
        probe = per_node * (1.0 - PROBE_MARGIN)
        cap = min(max(probe, P_NODE_MIN), P_NODE_MAX)
        return reserved, cap

    # -------------------------------------------------------------- plumbing

    def _gauge(self, job_id: str):
        gauge = self._mx_state.get(job_id)
        if gauge is None:
            gauge = self.telemetry.registry.gauge(
                "anor_endpoint_trust_state",
                "endpoint trust (0 trusted, 1 suspect, 2 quarantined, "
                "3 rehabilitating)",
                job=job_id,
            )
            self._mx_state[job_id] = gauge
        return gauge

    def _forget(self, job_id: str) -> None:
        self._jobs.pop(job_id, None)
        if self.telemetry.enabled:
            gauge = self._mx_state.pop(job_id, None)
            if gauge is not None:
                gauge.set(TRUST_STATES[TRUSTED])
