"""Predictive planning subsystem: forecasters, receding-horizon planner,
and the forecast safety envelope (ROADMAP "planning layer").

The reactive control plane re-solves the budgeter from the *current* target
sample every round, so every downward step is first seen as a tracking
error.  This package adds a lookahead layer:

* :mod:`repro.plan.forecast` — ``TargetForecaster`` implementations that
  turn past target samples (or exact file-backed breakpoints) into a
  horizon of ``(t, ŷ)`` points with online error tracking.
* :mod:`repro.plan.planner` — ``RecedingHorizonPlanner`` pre-solves the
  budgeter over the next H control rounds, yielding per-job cap
  trajectories with cap-churn hysteresis, and exposes upcoming plan
  instants to the event calendar so striding stays exact.
* :mod:`repro.plan.envelope` — ``SafetyEnvelope`` clamps every planned
  budget to ``min(forecast, last-observed)`` and runs the
  ``shadow → active → fallback`` state machine that reverts to the
  reactive path when windowed forecast error exceeds its bound.

Everything is opt-in via ``AnorConfig.plan_*``; with the knobs off the
control plane is bit-identical to the reactive seed behaviour.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "envelope": ("PLAN_ACTIVE", "PLAN_FALLBACK", "PLAN_SHADOW", "SafetyEnvelope"),
        "forecast": (
            "AR1Forecaster", "ForecastErrorWindow", "ForecastPoint",
            "InvertedRampForecaster", "PersistenceForecaster", "RampForecaster",
            "ScheduleForecaster", "TargetForecaster", "make_forecaster",
        ),
        "planner": ("Plan", "PlannedRound", "RecedingHorizonPlanner"),
    },
)
