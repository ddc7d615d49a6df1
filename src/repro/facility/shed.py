"""Graceful-degradation ladder: staged power shedding with ramped recovery.

The facility tier's original emergency response was binary: a tripped
breaker slammed every member to ``p_min`` regardless of how deep the
shortfall actually was.  The ladder replaces that with four severity
states driven by the *supply deficit* (how far the available feed has
fallen below nominal demand):

* **normal** — no deficit worth acting on; every job runs under its
  budgeted cap.
* **brownout-1** — shallow deficit.  Preemptible jobs are capped to their
  power floor; nothing is evicted.
* **brownout-2** — deep deficit.  Preemptible jobs are preempted (killed
  and requeued for after the incident); checkpointable jobs are capped to
  their floor.
* **blackstart** — existential deficit.  Preemptible jobs are killed
  outright, checkpointable jobs are preempted (their checkpoints make the
  requeue cheap), and protected jobs — the only survivors — are capped to
  their floor.  Protected jobs are *never* preempted or killed at any
  severity: the plan table simply has no such entry, so the guarantee is
  structural rather than behavioural.

Two mechanisms stop an oscillating feed from flapping jobs in and out of
preemption, both borrowed from the :class:`~repro.facility.breaker
.PowerBreaker`'s asymmetric-hysteresis shape:

* **severity hysteresis** — escalation needs only ``ESCALATE_ROUNDS``
  consecutive worse rounds (and then jumps straight to the indicated
  severity: a 60 % feeder loss must not dwell in brownout-1), while
  recovery needs ``CLEAR_ROUNDS`` consecutive better rounds *per step*
  and always steps down one level at a time.  Any round at or above the
  current severity resets recovery progress.
* **budget ramp** — the effective budget ceiling follows a falling supply
  immediately but recovers at most ``RAMP_WATTS_PER_ROUND`` per control
  round, so restored feed re-inflates caps on a bounded slope instead of
  a step.

Like the breaker, the ladder is pure bookkeeping: it consumes no RNG and
keeps no wall-clock state, so constructing one changes nothing until its
owner acts on ``severity`` / ``ceiling``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping

from repro.core.choices import SHED_CLASSES
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.nas import P_NODE_MIN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.round import BudgetRound

__all__ = [
    "ShedLadder",
    "ShedController",
    "SEVERITY_LEVELS",
    "SEVERITY_VALUES",
    "SHED_CLASSES",
    "SHED_ACTIONS",
    "SHED_PLANS",
    "TRANSITION_LOG_LIMIT",
]

#: Severity states, mildest first.  Order is load-bearing: escalation and
#: recovery move along this tuple.
SEVERITY_LEVELS = ("normal", "brownout-1", "brownout-2", "blackstart")

#: Gauge encoding for ``anor_shed_severity`` (Prometheus wants a number).
SEVERITY_VALUES = {name: i for i, name in enumerate(SEVERITY_LEVELS)}

#: Escalation chain of per-job actions, mildest first.
SHED_ACTIONS = ("none", "cap-to-floor", "preempt", "kill")

#: The priority-tiered shedding plan: severity → shed class → action.
#: ``protected`` never maps to ``preempt`` or ``kill`` — that absence is
#: the scorecard's "protected jobs survive" guarantee.
SHED_PLANS: dict[str, dict[str, str]] = {
    "normal": {
        "preemptible": "none", "checkpointable": "none", "protected": "none",
    },
    "brownout-1": {
        "preemptible": "cap-to-floor", "checkpointable": "none",
        "protected": "none",
    },
    "brownout-2": {
        "preemptible": "preempt", "checkpointable": "cap-to-floor",
        "protected": "none",
    },
    "blackstart": {
        "preemptible": "kill", "checkpointable": "preempt",
        "protected": "cap-to-floor",
    },
}

#: Bound on in-memory transition logs (ladder and breaker alike): chaos
#: soaks run for simulated days and must not grow memory without limit.
TRANSITION_LOG_LIMIT = 256

#: Supply deficits (``1 - supply/demand``) at which each severity is
#: indicated, strictly increasing in (0, 1): a 10 % shortfall is absorbed by
#: flooring preemptible work, a quarter needs preemption, half is existential.
DEFICITS = {"brownout-1": 0.10, "brownout-2": 0.25, "blackstart": 0.50}
#: Consecutive rounds a worse severity must be indicated before the ladder
#: escalates (straight to the indicated level), and a better one before it
#: steps down one level: leaving is slower than entering.
ESCALATE_ROUNDS = 2
CLEAR_ROUNDS = 5
#: Most the effective budget ceiling may rise in one control round during
#: recovery (W), so restored feed re-inflates caps on a slope; decreases are
#: never limited.
RAMP_WATTS_PER_ROUND = 100.0
#: Shed class of a job whose claimed type ``ShedController.classes`` does
#: not list: preemptible by checkpoint, never killed before blackstart.
DEFAULT_CLASS = "checkpointable"


@dataclass
class ShedLadder:
    """Severity state machine + ramped budget ceiling
    (``RAMP_WATTS_PER_ROUND``)."""

    severity: str = field(default="normal", init=False)
    escalations: int = field(default=0, init=False)
    #: Bounded transition log; ``transitions_dropped`` counts evictions.
    transitions: deque = field(
        default_factory=lambda: deque(maxlen=TRANSITION_LOG_LIMIT), init=False
    )
    transitions_dropped: int = field(default=0, init=False)
    _worse_streak: int = field(default=0, init=False)
    _better_streak: int = field(default=0, init=False)
    _ceiling: float | None = field(default=None, init=False)
    #: The ceiling still lies below the supply: the recovery ramp is on.
    ramping: bool = field(default=False, init=False)

    @property
    def gauge_value(self) -> int:
        return SEVERITY_VALUES[self.severity]

    @property
    def ceiling(self) -> float:
        """Effective budget ceiling after the recovery ramp (inf until fed)."""
        return float("inf") if self._ceiling is None else self._ceiling

    @property
    def plan(self) -> dict[str, str]:
        """Shed class → action at the current severity."""
        return SHED_PLANS[self.severity]

    def indicated(self, deficit: float) -> str:
        """The severity a sustained ``deficit`` would indicate."""
        for severity in reversed(SEVERITY_LEVELS[1:]):
            if deficit >= DEFICITS[severity]:
                return severity
        return "normal"

    def observe(self, supply: float, demand: float, now: float = 0.0) -> str:
        """Feed one control round's (supply, demand) pair; returns severity.

        A non-positive demand carries no deficit information and leaves
        the severity untouched; the ceiling still tracks the supply.
        """
        self._update_ceiling(supply)
        if demand <= 0:
            return self.severity
        deficit = max(0.0, 1.0 - supply / demand)
        indicated = self.indicated(deficit)
        current = SEVERITY_VALUES[self.severity]
        candidate = SEVERITY_VALUES[indicated]
        if candidate > current:
            self._worse_streak += 1
            self._better_streak = 0
            if self._worse_streak >= ESCALATE_ROUNDS:
                self._transition(indicated, now, deficit)
                self.escalations += 1
        elif candidate < current:
            self._better_streak += 1
            self._worse_streak = 0
            if self._better_streak >= CLEAR_ROUNDS:
                self._transition(SEVERITY_LEVELS[current - 1], now, deficit)
        else:
            # A round at the current severity resets recovery progress —
            # the breaker-style asymmetry that prevents flapping.
            self._worse_streak = 0
            self._better_streak = 0
        return self.severity

    def _update_ceiling(self, supply: float) -> None:
        if self._ceiling is None or supply <= self._ceiling:
            self._ceiling = supply
        else:
            self._ceiling = min(supply, self._ceiling + RAMP_WATTS_PER_ROUND)
        self.ramping = self._ceiling < supply

    def _transition(self, new_severity: str, now: float, deficit: float) -> None:
        if (self.transitions.maxlen is not None
                and len(self.transitions) == self.transitions.maxlen):
            self.transitions_dropped += 1
        self.transitions.append(
            f"t={now:.1f} shed {self.severity} -> {new_severity} "
            f"deficit={deficit:.2f}"
        )
        self.severity = new_severity
        self._worse_streak = 0
        self._better_streak = 0


@dataclass
class ShedController:
    """Binds a :class:`ShedLadder` to a job population.

    The cluster manager owns one (when ``shed_enabled``) and runs its two
    round stages: :meth:`observe_stage` grades the feed just read and
    lowers the round's target to the ramped ceiling; :meth:`apply_stage`
    floors the caps of shed classes and puts ``preempt``/``kill`` actions on
    the round for the framework to enforce afterwards (as orphaned jobs
    are).  Every intervention only *reduces* caps.

    ``classes`` maps a job's claimed type to its shed class; unmapped
    types fall back to ``DEFAULT_CLASS``.  ``nominal_watts`` is the demand
    reference for the deficit; when ``None`` the controller tracks the
    high-water mark of observed budgets instead (the feed seen before the
    incident *is* nominal demand).
    """

    ladder: ShedLadder
    classes: Mapping[str, str] = field(default_factory=dict)
    nominal_watts: float | None = None
    telemetry: Telemetry = NULL_TELEMETRY

    #: Every requested preempt/kill as ``(time, job_id, action)``, kept for
    #: the life of the controller.
    requests: list = field(default_factory=list, init=False)
    preempts: int = field(default=0, init=False)
    kills: int = field(default=0, init=False)
    #: Severity-cleared episodes (each ends one incident's shed set).
    restores: int = field(default=0, init=False)
    _high_water: float = field(default=0.0, init=False)
    _shed_jobs: set = field(default_factory=set, init=False)

    def __post_init__(self) -> None:
        for type_name, shed_class in self.classes.items():
            if shed_class not in SHED_CLASSES:
                raise ValueError(
                    f"shed class for {type_name!r} must be one of "
                    f"{SHED_CLASSES}, got {shed_class!r}"
                )
        reg = self.telemetry.registry
        self._mx_severity = reg.gauge(
            "anor_shed_severity",
            "degradation-ladder severity (0 normal .. 3 blackstart)",
        )
        self._mx_ceiling = reg.gauge(
            "anor_shed_ceiling_watts",
            "effective budget ceiling after the recovery ramp",
        )
        self._mx_actions = {
            action: reg.counter(
                "anor_shed_actions_total",
                "shed actions dispatched by the degradation ladder",
                action=action,
            )
            for action in SHED_ACTIONS[1:]
        }
        self._mx_restores = reg.counter(
            "anor_shed_restores_total",
            "shed episodes cleared (severity back to normal)",
        )
        # One span per incident episode: opened on the first escalation,
        # closed when severity returns to normal.
        self._episode_span = 0

    @property
    def severity(self) -> str:
        return self.ladder.severity

    @property
    def active(self) -> bool:
        """True while any degradation (or its recovery ramp) is in force."""
        return self.ladder.severity != "normal"

    def observe(self, supply: float, now: float = 0.0) -> float:
        """Feed one round's assigned budget; returns the effective ceiling."""
        if self.nominal_watts is None and supply > self._high_water:
            self._high_water = supply
        demand = (self.nominal_watts if self.nominal_watts is not None
                  else self._high_water)
        before = self.ladder.severity
        self.ladder.observe(supply, demand, now)
        if before != "normal" and self.ladder.severity == "normal":
            self._shed_jobs.clear()
            self.restores += 1
        return min(supply, self.ladder.ceiling)

    def class_of(self, claimed_type: str) -> str:
        return self.classes.get(claimed_type, DEFAULT_CLASS)

    def action_for(self, claimed_type: str) -> str:
        """The plan's action for a job of ``claimed_type`` right now."""
        return self.ladder.plan[self.class_of(claimed_type)]

    def request_shed(self, job_id: str, action: str, now: float = 0.0) -> bool:
        """Queue a preempt/kill for the framework; idempotent per episode."""
        if action not in ("preempt", "kill"):
            raise ValueError(f"not a shedding action: {action!r}")
        if job_id in self._shed_jobs:
            return False
        self._shed_jobs.add(job_id)
        self.requests.append((now, job_id, action))
        if action == "kill":
            self.kills += 1
        else:
            self.preempts += 1
        return True

    # ---------------------------------------------------------- round stages

    def observe_stage(self, rnd: "BudgetRound") -> None:
        """Grade the feed just read.  The ladder sees the raw feed;
        everything downstream budgets to its ramped ceiling (identical to
        the feed while normal)."""
        now, feed, prev = rnd.time, rnd.target, self.severity
        rnd.target = ceiling = self.observe(feed, now)
        # Launching into a brownout would hand the ladder fresh work to shed
        # right back; launches resume when severity returns to normal.
        rnd.admission_held = self.active
        severity = self.severity
        if severity != prev:
            rnd.report(
                now,
                f"shed {prev} -> {severity} "
                f"(target={feed:.0f}W ceiling={ceiling:.0f}W)",
                "shed-" + severity,
                target=feed,
                ceiling=ceiling,
            )
            bus = self.telemetry.bus
            if prev == "normal" and not self._episode_span:
                self._episode_span = bus.begin_span(
                    "shed-episode", now, severity=severity
                )
            elif severity == "normal":
                self._mx_restores.inc()
                bus.end_span(
                    self._episode_span, now,
                    preempts=self.preempts, kills=self.kills,
                )
                self._episode_span = 0
        self._mx_severity.set(self.ladder.gauge_value)
        self._mx_ceiling.set(ceiling)

    def apply_stage(self, rnd: "BudgetRound") -> None:
        """Clamp shed-class caps and request preempt/kill in class order.
        Protected jobs can at most be floored (the plan table has no harsher
        entry for them)."""
        if not self.active:
            return
        now, caps, plan = rnd.time, rnd.caps, self.ladder.plan
        for job_id in sorted(caps):
            action = plan[self.class_of(rnd.jobs[job_id].claimed_type)]
            if action == "none":
                continue
            if caps[job_id] > P_NODE_MIN:
                caps[job_id] = P_NODE_MIN
                if action == "cap-to-floor":
                    self._mx_actions[action].inc()
            if action != "cap-to-floor" and self.request_shed(job_id, action, now):
                rnd.actions.append((action, job_id))
                self._mx_actions[action].inc()
                rnd.report(
                    now,
                    f"{job_id}: shed {action} (severity={self.severity})",
                    "shed-" + action,
                    parent=self._episode_span or None,
                    job_id=job_id,
                    severity=self.severity,
                )
