"""Facility power breaker: last-line guard against sustained overshoot.

The budgeting stack is feed-forward with a slow integral trim — nothing in
it *guarantees* measured cluster power stays under the facility target when
models are wrong, jobs misbehave, or a partition strands stale caps.  The
breaker is that guarantee's enforcement arm, deliberately shaped like an
electrical circuit breaker (and the software pattern of the same name):

* **closed** — normal operation.  Measured power exceeding
  ``target × (1 + margin)`` scores a *strike*; ``TRIP_ROUNDS`` consecutive
  strikes trip the breaker (one bad sample never does — meters glitch).
* **open** — tripped.  The owner (cluster manager or facility coordinator)
  dispatches an emergency uniform throttle every round while open.  After
  ``RESET_ROUNDS`` consecutive clean rounds the breaker moves to half-open.
* **half-open** — probation.  ``CONFIRM_ROUNDS`` further clean rounds close
  it; a single overshoot re-opens it immediately (the classic asymmetry:
  getting out of emergency mode must be much harder than re-entering it).

The breaker is pure bookkeeping — it never touches caps itself, consumes no
RNG, and keeps no wall-clock state, so adding one to a seeded run changes
nothing until its owner acts on ``tripped``.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.nas import P_NODE_MIN

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.round import BudgetRound

__all__ = ["PowerBreaker", "BREAKER_STATE_VALUES", "TRANSITION_LOG_LIMIT"]

#: Gauge encoding for ``anor_breaker_state`` (Prometheus wants a number).
BREAKER_STATE_VALUES = {"closed": 0, "half-open": 1, "open": 2}

#: Bound on the in-memory transition log: a flapping feed during a chaos
#: soak must not grow memory without limit.
TRANSITION_LOG_LIMIT = 256

#: Consecutive rounds that move the breaker along its edges: striking rounds
#: that trip it, clean rounds that take open to half-open, clean half-open
#: rounds that close it.  Getting out takes longer than getting in.
TRIP_ROUNDS = 3
RESET_ROUNDS = 5
CONFIRM_ROUNDS = 3


@dataclass
class PowerBreaker:
    """Three-state overshoot breaker (closed / open / half-open).

    Parameters
    ----------
    margin:
        Fractional overshoot that counts as a strike: measured power above
        ``target * (1 + margin)`` is a violation.  Must be ≥ 0.
    """

    margin: float = 0.1
    telemetry: Telemetry = NULL_TELEMETRY

    state: str = field(default="closed", init=False)
    strikes: int = field(default=0, init=False)
    clean: int = field(default=0, init=False)
    trips: int = field(default=0, init=False)
    #: Bounded human-readable transition log (mirrors manager/coordinator
    #: events); ``transitions_dropped`` counts evicted lines.
    transitions: deque = field(
        default_factory=lambda: deque(maxlen=TRANSITION_LOG_LIMIT), init=False
    )
    transitions_dropped: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.margin < 0:
            raise ValueError(f"margin must be ≥ 0, got {self.margin}")
        self._mx_state = self.telemetry.registry.gauge(
            "anor_breaker_state",
            "overshoot breaker state (0 closed, 1 half-open, 2 open)",
        )

    @property
    def tripped(self) -> bool:
        return self.state == "open"

    @property
    def gauge_value(self) -> int:
        return BREAKER_STATE_VALUES[self.state]

    def observe(self, measured: float, target: float, now: float = 0.0) -> str:
        """Feed one control round's (measured, target) pair; returns the state.

        A non-positive target carries no overshoot information (nothing to
        exceed) and leaves the breaker untouched.
        """
        if target <= 0:
            return self.state
        violating = measured > target * (1.0 + self.margin)
        if self.state == "closed":
            if violating:
                self.strikes += 1
                if self.strikes >= TRIP_ROUNDS:
                    self._transition("open", now)
                    self.trips += 1
            else:
                self.strikes = 0
        elif self.state == "open":
            if violating:
                self.clean = 0
            else:
                self.clean += 1
                if self.clean >= RESET_ROUNDS:
                    self._transition("half-open", now)
        else:  # half-open: one strike re-opens, CONFIRM_ROUNDS clean closes
            if violating:
                self._transition("open", now)
                self.trips += 1
            else:
                self.clean += 1
                if self.clean >= CONFIRM_ROUNDS:
                    self._transition("closed", now)
        return self.state

    def _transition(self, new_state: str, now: float) -> None:
        if len(self.transitions) == TRANSITION_LOG_LIMIT:
            self.transitions_dropped += 1
        self.transitions.append(f"t={now:.1f} breaker {self.state} -> {new_state}")
        self.state = new_state
        self.strikes = 0
        self.clean = 0

    # ---------------------------------------------------------- round stages
    #
    # What a cluster manager that owns a breaker runs each round.

    def observe_stage(self, rnd: "BudgetRound") -> None:
        """Score this round's meter sample (a meter outage scores nothing)."""
        measured, target = rnd.measured, rnd.target
        if not math.isfinite(measured):
            return
        prev = self.state
        state = self.observe(measured, target, now=rnd.time)
        if state != prev:
            rnd.report(
                rnd.time,
                f"breaker {prev} -> {state} "
                f"(measured={measured:.0f}W target={target:.0f}W)",
                "breaker-" + state,
                measured=measured,
                target=target,
            )
        self._mx_state.set(self.gauge_value)

    def clamp_stage(self, rnd: "BudgetRound") -> None:
        # Emergency uniform throttle while open: every cap down to the
        # platform floor.  Never raises a cap, so the round's planned-draw
        # ceiling remains an upper bound.
        if self.tripped:
            caps = rnd.caps
            for job_id, cap in caps.items():
                if cap > P_NODE_MIN:
                    caps[job_id] = P_NODE_MIN
