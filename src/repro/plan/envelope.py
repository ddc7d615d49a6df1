"""Forecast safety envelope: trust gating for the predictive planner.

Two mechanisms keep a wrong forecast from ever costing more than the
reactive path:

1. **Budget clamp** — every planned budget is solved against
   ``min(forecast, last-observed)`` (:meth:`SafetyEnvelope.bound`), and at
   dispatch time the manager additionally requires the planned total to fit
   inside the budget derived from the *actual* target just read.  A
   forecast can therefore only move power *earlier* or *lower*, never push
   realized draw above what the reactive controller would allow.

2. **State machine** — ``shadow → active → fallback``:

   * ``shadow``: the planner builds and scores plans but none are applied;
     behaviour is observationally identical to reactive.  Promotion to
     ``active`` requires ``promote_rounds`` consecutive scored rounds with
     windowed MAE inside ``error_bound_watts`` (``promote_rounds = 0``
     starts active — used by drills and trusted schedule forecasters).
   * ``active``: planned caps are dispatched and plan instants drive extra
     control rounds.  If windowed MAE exceeds the bound (with at least
     ``MIN_TRIP_SAMPLES`` scores in the window), the envelope trips to
     ``fallback``.
   * ``fallback``: reactive behaviour again; the forecaster keeps being
     scored, and once MAE stays inside the bound for ``promote_rounds``
     consecutive rounds the envelope returns to ``shadow`` (or directly to
     ``active`` when ``promote_rounds = 0``) to re-earn trust.

Leases, the facility breaker, and quarantine budgeting are enforced in the
manager *after* any plan is consumed, so they always take precedence over
planned caps.
"""

from __future__ import annotations

__all__ = [
    "PLAN_SHADOW",
    "PLAN_ACTIVE",
    "PLAN_FALLBACK",
    "PLAN_STATE_GAUGE",
    "SafetyEnvelope",
]

PLAN_SHADOW = "shadow"
PLAN_ACTIVE = "active"
PLAN_FALLBACK = "fallback"

#: numeric encoding used by the ``anor_plan_state`` gauge
PLAN_STATE_GAUGE = {PLAN_SHADOW: 0.0, PLAN_ACTIVE: 1.0, PLAN_FALLBACK: 2.0}

#: Scored rounds the error window must hold before its MAE may trip an
#: active plan to fallback: one early miss is not a trend.
MIN_TRIP_SAMPLES = 4


class SafetyEnvelope:
    """Windowed-error trust gate around a forecaster's predictions."""

    def __init__(
        self,
        *,
        error_bound_watts: float,
        promote_rounds: int = 4,
    ) -> None:
        if error_bound_watts <= 0:
            raise ValueError(
                f"error_bound_watts must be positive, got {error_bound_watts}"
            )
        if promote_rounds < 0:
            raise ValueError(f"promote_rounds must be ≥ 0, got {promote_rounds}")
        self.error_bound_watts = float(error_bound_watts)
        self.promote_rounds = int(promote_rounds)
        self.state = PLAN_ACTIVE if self.promote_rounds == 0 else PLAN_SHADOW
        self.fallbacks = 0
        self.transitions: list[tuple[float, str, str]] = []
        self._ok_streak = 0

    @property
    def gauge(self) -> float:
        """Numeric state for the ``anor_plan_state`` gauge."""
        return PLAN_STATE_GAUGE[self.state]

    @staticmethod
    def bound(forecast_watts: float, observed_watts: float) -> float:
        """The planning target the envelope permits: min(forecast, observed)."""
        return min(float(forecast_watts), float(observed_watts))

    def _transition(self, now: float, new_state: str) -> None:
        self.transitions.append((now, self.state, new_state))
        self.state = new_state
        self._ok_streak = 0

    def update(self, now: float, mae: float, samples: int) -> str:
        """Advance the state machine with the current windowed error.

        ``mae`` is the forecaster's sliding-window mean absolute error and
        ``samples`` the number of scored rounds currently in the window.
        Returns the (possibly new) state.
        """
        ok = mae <= self.error_bound_watts
        if self.state == PLAN_SHADOW:
            self._ok_streak = self._ok_streak + 1 if ok else 0
            if self.promote_rounds == 0 or self._ok_streak >= self.promote_rounds:
                self._transition(now, PLAN_ACTIVE)
        elif self.state == PLAN_ACTIVE:
            if not ok and samples >= MIN_TRIP_SAMPLES:
                self.fallbacks += 1
                self._transition(now, PLAN_FALLBACK)
        else:  # PLAN_FALLBACK
            self._ok_streak = self._ok_streak + 1 if ok else 0
            if self._ok_streak >= max(self.promote_rounds, 1):
                self._transition(
                    now, PLAN_ACTIVE if self.promote_rounds == 0 else PLAN_SHADOW
                )
        return self.state

    def first_fallback_time(self) -> float | None:
        """Time of the first active→fallback transition, if any."""
        for time, _, new in self.transitions:
            if new == PLAN_FALLBACK:
                return time
        return None

    def first_active_time(self) -> float | None:
        """Time the envelope first reached ``active`` (None if it started there
        and never transitioned)."""
        for time, _, new in self.transitions:
            if new == PLAN_ACTIVE:
                return time
        return None
