"""Facility-level power coordination across clusters (paper §8).

The coordinator treats each member cluster exactly the way the cluster tier
treats a job: a power range [p_min, p_max] plus a power-performance model.
A cluster's aggregate model maps *facility-assigned cluster budgets* to an
effective slowdown, built by probing the cluster's own budgeter across its
feasible budget range (:func:`aggregate_cluster_model`).  The same budgeter
policies then apply one tier up — with an even-slowdown facility split, a
cluster full of power-sensitive work receives proportionally more of the
shared feed than one running insensitive jobs.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from repro.budget.base import JobBudgetRequest, PowerBudgeter
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.targets import PowerTargetSource
from repro.facility.breaker import PowerBreaker
from repro.facility.shed import ShedLadder
from repro.invariants import PLAN_SLACK
from repro.modeling.quadratic import QuadraticPowerModel
from repro.telemetry import NULL_TELEMETRY, Telemetry

__all__ = [
    "MutableTarget",
    "ClusterMember",
    "FacilityCoordinator",
    "aggregate_cluster_model",
    "HISTORY_LIMIT",
    "EVENT_LOG_LIMIT",
]

#: Bounds on the coordinator's in-memory logs: chaos soaks run for
#: simulated days, and an unbounded per-round history is a slow leak.
HISTORY_LIMIT = 4096
EVENT_LOG_LIMIT = 256


class MutableTarget(PowerTargetSource):
    """A power-target source the facility tier can rewrite at runtime.

    Handed to a member cluster's :class:`~repro.core.framework.AnorSystem`
    as its target source, in place of a file-backed target: the facility
    coordinator calls :meth:`set` whenever it re-splits the facility budget.
    """

    def __init__(self, initial: float) -> None:
        if initial <= 0:
            raise ValueError(f"target must be positive, got {initial}")
        self._watts = float(initial)

    def set(self, watts: float) -> None:
        if watts <= 0:
            raise ValueError(f"target must be positive, got {watts}")
        self._watts = float(watts)

    def target(self, now: float) -> float:
        return self._watts

    def window(self, t: float, horizon: float) -> tuple[tuple[float, float], ...]:
        """No known future breakpoints — facility rewrites are unannounced.

        Present so a member cluster's predictive planner can treat the
        facility feed uniformly with file-backed targets: an empty window
        means "plan on the statistical forecast only".
        """
        if horizon < 0:
            raise ValueError(f"horizon must be ≥ 0, got {horizon}")
        return ()


def aggregate_cluster_model(
    job_requests: Sequence[JobBudgetRequest],
    *,
    budgeter: PowerBudgeter | None = None,
    samples: int = 24,
) -> QuadraticPowerModel:
    """Fit a single budget→slowdown model for a whole cluster.

    Probes the cluster's budgeter across its feasible budget range and
    records the *worst-job* predicted time factor at each budget (the
    quantity an even-slowdown facility split equalises across clusters).
    The result is expressed in the cluster tier's own currency — seconds per
    "facility epoch" as a function of the cluster budget in watts — so the
    facility can feed it straight into a :class:`JobBudgetRequest`.
    """
    if not job_requests:
        raise ValueError("cluster has no jobs to aggregate")
    if samples < 3:
        raise ValueError(f"need ≥ 3 samples for a quadratic fit, got {samples}")
    budgeter = budgeter or EvenSlowdownBudgeter()
    floor = sum(j.p_min * j.nodes for j in job_requests)
    ceiling = sum(j.p_max * j.nodes for j in job_requests)
    budgets = np.linspace(floor, ceiling, samples)
    worst = np.empty(samples)
    for i, budget in enumerate(budgets):
        allocation = budgeter.allocate(job_requests, float(budget))
        worst[i] = max(
            j.model.time_per_epoch(allocation.caps[j.job_id])
            / j.model.time_per_epoch(j.p_max)
            for j in job_requests
        )
    fit = QuadraticPowerModel.fit(budgets, worst, float(floor), float(ceiling))
    return fit.model


@dataclass
class ClusterMember:
    """One cluster as seen by the facility tier."""

    name: str
    target: MutableTarget
    p_min: float  # lowest enforceable cluster power (all caps at floor + idle)
    p_max: float  # cluster power at full caps
    model: QuadraticPowerModel  # aggregate budget -> relative-time model
    last_assigned: float = 0.0

    def __post_init__(self) -> None:
        if not 0 < self.p_min < self.p_max:
            raise ValueError(f"{self.name}: need 0 < p_min < p_max")

    def to_request(self) -> JobBudgetRequest:
        return JobBudgetRequest(
            job_id=self.name,
            nodes=1,  # budgets are already cluster-level watts
            model=self.model,
            p_min=self.p_min,
            p_max=self.p_max,
        )


@dataclass
class FacilityCoordinator:
    """Splits the facility's power feed across member clusters.

    ``facility_target`` maps time to the facility's total power budget
    (e.g. a fixed transformer rating, or a facility-level demand-response
    target).  Each :meth:`step` re-splits the budget and pushes each
    member's share into its :class:`MutableTarget`.
    """

    facility_target: PowerTargetSource
    budgeter: PowerBudgeter = field(default_factory=EvenSlowdownBudgeter)
    members: dict[str, ClusterMember] = field(default_factory=dict)
    #: Bounded per-round (time, caps) log; ``history_dropped`` counts evictions.
    history: deque = field(
        default_factory=lambda: deque(maxlen=HISTORY_LIMIT))
    # Facility-level breaker (DESIGN.md §4e): when the summed facility meter
    # exceeds the facility target past the breaker's margin for its trip
    # window, every member is assigned its p_min — an emergency uniform
    # throttle one tier above the cluster managers' own breakers.  ``meter``
    # returns total measured facility power; both default to None (off).
    meter: Callable[[], float] | None = None
    breaker: PowerBreaker | None = None
    #: Graceful-degradation ladder (DESIGN.md §10): with one installed, a
    #: tripped breaker or a sagging feed degrades the pool in severity
    #: stages and recovery ramps back up, instead of the binary floor slam.
    ladder: ShedLadder | None = None
    telemetry: Telemetry = NULL_TELEMETRY
    #: Bounded event log; ``events_dropped`` counts evictions.
    events: deque = field(
        default_factory=lambda: deque(maxlen=EVENT_LOG_LIMIT))
    history_dropped: int = 0
    events_dropped: int = 0
    _high_water: float = field(default=0.0, init=False)
    _feed_lost: bool = field(default=False, init=False)  # the last round read no feed

    def __post_init__(self) -> None:
        reg = self.telemetry.registry
        self._mx_breaker_state = reg.gauge(
            "anor_facility_breaker_state",
            "facility breaker state (0 closed / 1 half-open / 2 open)",
        )
        self._mx_assigned = reg.gauge(
            "anor_facility_assigned_watts",
            "total watts assigned to member clusters this round",
        )
        self._mx_severity = reg.gauge(
            "anor_facility_shed_severity",
            "degradation-ladder severity (0 normal .. 3 blackstart)",
        )

    def add_member(self, member: ClusterMember) -> None:
        if member.name in self.members:
            raise ValueError(f"duplicate cluster name {member.name!r}")
        self.members[member.name] = member

    def update_member_model(self, name: str, model: QuadraticPowerModel,
                            *, p_min: float | None = None,
                            p_max: float | None = None) -> None:
        """Refresh a member's aggregate model (its job mix changed)."""
        member = self.members[name]
        member.model = model
        if p_min is not None:
            member.p_min = p_min
        if p_max is not None:
            member.p_max = p_max

    def step(self, now: float) -> dict[str, float]:
        """One facility control period: split and push cluster budgets.

        A feed that raises or reads NaN holds the split each member was
        last pushed (one event per outage); a meter that does skips the
        breaker's observation this round.
        """
        if not self.members:
            return {}
        total = _guarded(self.facility_target.target, now)
        tel = self.telemetry
        if math.isnan(total):
            if not self._feed_lost:
                self._feed_lost = True
                self._record_event(f"t={now:.1f} facility feed unreadable: holding the last split")
                if tel.enabled:
                    tel.incident("facility-feed-lost", now)
            return {name: m.target.target(now) for name, m in self.members.items()}
        self._feed_lost = False
        floor_total = sum(m.p_min for m in self.members.values())
        measured = math.nan
        if self.breaker is not None and self.meter is not None:
            measured = _guarded(self.meter)
        if not math.isnan(measured):
            prev = self.breaker.state
            state = self.breaker.observe(measured, total, now=now)
            if state != prev:
                self._record_event(
                    f"t={now:.1f} facility breaker {prev} -> {state} "
                    f"(measured={measured:.0f}W target={total:.0f}W)"
                )
                if tel.enabled:
                    tel.incident(
                        f"facility-breaker-{state}", now,
                        measured=measured, target=total,
                    )
            self._mx_breaker_state.set(self.breaker.gauge_value)
        tripped = self.breaker is not None and self.breaker.tripped
        if self.ladder is not None:
            # Graceful degradation: a tripped breaker means the feed cannot
            # be trusted above the enforceable floor; otherwise supply is
            # the feed itself.  Severity grades off the deficit against the
            # high-water feed, and the pool ramps back up after an incident
            # instead of stepping.
            supply = floor_total if tripped else total
            self._high_water = max(self._high_water, total)
            prev_severity = self.ladder.severity
            severity = self.ladder.observe(supply, self._high_water, now=now)
            if severity != prev_severity:
                self._record_event(
                    f"t={now:.1f} facility shed {prev_severity} -> {severity} "
                    f"(supply={supply:.0f}W nominal={self._high_water:.0f}W)"
                )
                if tel.enabled:
                    tel.incident(
                        f"facility-shed-{severity}", now,
                        supply=supply, nominal=self._high_water,
                    )
            self._mx_severity.set(self.ladder.gauge_value)
            pool = max(min(supply, self.ladder.ceiling), floor_total)
        elif tripped:
            # Emergency: every member to its enforceable floor.  Clusters
            # cannot draw less than p_min anyway, so this is the hardest
            # uniform throttle the facility can command.
            caps = {name: m.p_min for name, m in self.members.items()}
            for name, member in self.members.items():
                member.target.set(caps[name])
                member.last_assigned = caps[name]
            return self._finish(now, caps, total)
        else:
            pool = total
        requests = [
            m.to_request() for m in sorted(self.members.values(), key=lambda m: m.name)
        ]
        allocation = self.budgeter.allocate(requests, pool)
        for name, member in self.members.items():
            share = allocation.caps[name]
            member.target.set(share)
            member.last_assigned = share
        return self._finish(now, dict(allocation.caps), total)

    def _finish(self, now: float, caps: dict[str, float],
                feed: float) -> dict[str, float]:
        """Log the round, flag over-assignment against the physical feed."""
        assigned = sum(caps.values())
        if assigned > feed + PLAN_SLACK:  # the solve's own slop is no shortfall
            # Σ p_min above the feed: nothing enforceable can close the gap,
            # so name the shortfall instead of over-assigning silently.
            shortfall = assigned - feed
            self._record_event(
                f"t={now:.1f} facility shortfall {shortfall:.0f}W "
                f"(assigned={assigned:.0f}W feed={feed:.0f}W)"
            )
            if self.telemetry.enabled:
                self.telemetry.incident(
                    "facility-shortfall", now,
                    shortfall_watts=shortfall, assigned=assigned, feed=feed,
                )
        self._mx_assigned.set(assigned)
        if len(self.history) == HISTORY_LIMIT:
            self.history_dropped += 1
        self.history.append((now, dict(caps)))
        return caps

    def _record_event(self, line: str) -> None:
        if len(self.events) == EVENT_LOG_LIMIT:
            self.events_dropped += 1
        self.events.append(line)

    @property
    def total_assigned(self) -> float:
        return sum(m.last_assigned for m in self.members.values())


def _guarded(read: Callable[..., float], *args: float) -> float:
    """``read(*args)`` as a float; NaN when it raises."""
    try:
        return float(read(*args))
    except Exception:
        return math.nan
