"""Target forecasters: past target samples → a horizon of (t, ŷ) points.

A forecaster sees exactly what the cluster manager sees — the target value
read at each control round — and extrapolates it over the planning horizon.
Three families cover the target sources the framework ships:

* :class:`PersistenceForecaster` — ŷ(t) = last observation.  The baseline
  every other forecaster must beat; exact for constant targets.
* :class:`AR1Forecaster` — mean-reverting AR(1) extrapolation for
  ``aqa.regulation`` signals: ŷ(t) = μ + ρ^k · (y − μ).  Fit offline from a
  regulation signal's vectorised :meth:`~repro.aqa.regulation.RegulationSignal.series`.
* :class:`ScheduleForecaster` — not a statistical model at all: file-backed
  targets publish their upcoming breakpoints via ``window(t, horizon)``, so
  the "forecast" is exact and its breakpoints become plan instants.

Every forecaster tracks its own online error (MAE/bias over a sliding
window) via :class:`ForecastErrorWindow`; the safety envelope reads that
window to decide when predictions can be trusted.
:class:`InvertedRampForecaster` deliberately extrapolates the wrong way —
the adversarial probe the forecast drill uses to prove the envelope holds.
Its base, :class:`RampForecaster`, fits the slope of the most recent samples
by least squares and extrapolates it linearly.

Not to be confused with :mod:`repro.modeling.forecasting`, which predicts
*job types* from submission metadata; the two modules share only the word.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from repro.core.choices import FORECASTER_KINDS
from repro.core.targets import PowerTargetSource, RegulationTarget

__all__ = [
    "ForecastPoint",
    "ForecastErrorWindow",
    "TargetForecaster",
    "PersistenceForecaster",
    "RampForecaster",
    "InvertedRampForecaster",
    "AR1Forecaster",
    "ScheduleForecaster",
    "make_forecaster",
]

#: Samples the ramp forecaster fits its slope through: eight manager rounds.
RAMP_FIT_POINTS = 8
#: Scored forecasts each forecaster's MAE and bias are taken over: the
#: window the safety envelope judges a forecaster by.
ERROR_WINDOW = 16


@dataclass(frozen=True)
class ForecastPoint:
    """One horizon point: predicted target ``value`` (W) at ``time``."""

    time: float
    value: float


class ForecastErrorWindow:
    """Sliding window of signed forecast errors (actual − predicted);
    ``mae`` and ``bias`` are worked out on :meth:`push`, read many times."""

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError(f"error window must be ≥ 1, got {window}")
        self.window = int(window)
        self._errors: deque[float] = deque(maxlen=self.window)
        #: Mean absolute error (W) over the window; 0 when empty.
        self.mae = 0.0
        #: Mean signed error (W); positive means the forecast runs low.
        self.bias = 0.0

    def push(self, error: float) -> None:
        self._errors.append(float(error))
        errors = np.array(self._errors)
        self.mae = float(np.mean(np.abs(errors)))
        self.bias = float(np.mean(errors))

    @property
    def count(self) -> int:
        return len(self._errors)

    def reset(self) -> None:
        self._errors.clear()
        self.mae = self.bias = 0.0


class TargetForecaster(ABC):
    """Common interface: observe target samples, emit a forecast horizon.

    Subclasses implement :meth:`predict`; the base class handles sample
    bookkeeping and the online error window.  The
    *caller* (the planner) decides which issued predictions to score via
    :meth:`record_error` — the forecaster itself has no notion of the
    control-round cadence.
    """

    #: human-readable name used in drill tables and telemetry
    name: str = "abstract"

    def __init__(self) -> None:
        self.errors = ForecastErrorWindow(ERROR_WINDOW)
        self._last_t: float | None = None
        self._last_y: float | None = None

    # -- observation ------------------------------------------------------
    def observe(self, t: float, y: float) -> None:
        """Feed one actual target sample (what the manager just read)."""
        self._last_t = float(t)
        self._last_y = float(y)
        self._observe(float(t), float(y))

    def _observe(self, t: float, y: float) -> None:
        """Subclass hook: update internal fit state on a new sample."""

    # -- prediction -------------------------------------------------------
    @abstractmethod
    def predict(self, now: float, t: float) -> float:
        """Predicted target (W) at future time ``t`` given samples up to ``now``."""

    def forecast(self, now: float, times: Iterable[float]) -> list[ForecastPoint]:
        """Emit the horizon of ``(t, ŷ)`` points."""
        return [ForecastPoint(float(t), self.predict(now, float(t))) for t in times]

    def breakpoints(self, now: float, horizon: float) -> tuple[float, ...]:
        """Future instants where the target is *known* to change; empty for
        statistical forecasters."""
        return ()

    # -- error tracking ---------------------------------------------------
    def record_error(self, error: float) -> None:
        """Record one signed error (actual − predicted) for a scored point."""
        self.errors.push(error)

    @property
    def mae(self) -> float:
        return self.errors.mae

    @property
    def bias(self) -> float:
        return self.errors.bias

    def _require_observation(self) -> tuple[float, float]:
        if self._last_t is None or self._last_y is None:
            raise ValueError(f"{self.name} forecaster has no observations yet")
        return (self._last_t, self._last_y)


class PersistenceForecaster(TargetForecaster):
    """ŷ(t) = last observed target — the zero-order-hold baseline."""

    name = "persistence"

    def predict(self, now: float, t: float) -> float:
        _, y = self._require_observation()
        return y


class RampForecaster(TargetForecaster):
    """Linear extrapolation of the recent target slope.

    Fits a least-squares line through the last ``RAMP_FIT_POINTS`` samples
    and extends it from the newest observation.
    """

    name = "ramp"

    def __init__(self) -> None:
        super().__init__()
        self._samples: deque[tuple[float, float]] = deque(maxlen=RAMP_FIT_POINTS)

    def _observe(self, t: float, y: float) -> None:
        if self._samples and self._samples[-1][0] == t:
            self._samples[-1] = (t, y)
        else:
            self._samples.append((t, y))

    def slope(self) -> float:
        """Fitted slope (W/s) over the retained samples; 0 with < 2 points."""
        if len(self._samples) < 2:
            return 0.0
        ts = np.array([s[0] for s in self._samples])
        ys = np.array([s[1] for s in self._samples])
        tc = ts - ts.mean()
        denom = float(np.dot(tc, tc))
        if denom <= 0.0:
            return 0.0
        return float(np.dot(tc, ys - ys.mean()) / denom)

    def predict(self, now: float, t: float) -> float:
        t0, y0 = self._require_observation()
        return y0 + self.slope() * (t - t0)


class InvertedRampForecaster(RampForecaster):
    """Adversarial probe: extrapolates the fitted slope *backwards*.

    Wrong by construction — roughly twice the true move per step — so the
    forecast drill can demonstrate that the safety envelope keeps planned
    draw inside the reactive bound and that fallback engages once windowed
    error crosses the configured limit.
    """

    name = "inverted-ramp"

    def slope(self) -> float:
        return -super().slope()


class AR1Forecaster(TargetForecaster):
    """Mean-reverting AR(1) extrapolation: ŷ(t) = μ + ρ^k · (y_now − μ).

    ``rho`` is the per-``step`` autocorrelation; ``k = (t − t_now) / step``.
    Built for :class:`~repro.core.targets.RegulationTarget` sources, whose
    signals are bounded mean-reverting walks; :meth:`fit_regulation`
    estimates μ and ρ offline from the signal's vectorised ``series()``.
    """

    name = "ar1"

    def __init__(
        self,
        *,
        mean_power: float,
        rho: float,
        step: float = 4.0,
    ) -> None:
        super().__init__()
        if mean_power <= 0:
            raise ValueError(f"mean_power must be positive, got {mean_power}")
        if not 0.0 <= rho < 1.0:
            raise ValueError(f"rho must be in [0, 1), got {rho}")
        if step <= 0:
            raise ValueError(f"step must be positive, got {step}")
        self.mean_power = float(mean_power)
        self.rho = float(rho)
        self.step = float(step)

    @classmethod
    def fit_regulation(
        cls,
        target: RegulationTarget,
        *,
        fit_duration: float = 1800.0,
    ) -> "AR1Forecaster":
        """Estimate μ and ρ from a regulation target's signal.

        Samples the signal on its update grid via the vectorised
        :meth:`~repro.aqa.regulation.RegulationSignal.series` path and
        regresses lag-1 values; μ comes from the signal mean mapped through
        ``P̄ + R·ȳ``.
        """
        if fit_duration <= target.update_period:
            raise ValueError("fit_duration must cover at least two update periods")
        times = np.arange(0.0, fit_duration, target.update_period)
        y = np.asarray(target.signal.series(times), dtype=float)
        centred = y - y.mean()
        denom = float(np.dot(centred[:-1], centred[:-1]))
        rho = float(np.dot(centred[1:], centred[:-1]) / denom) if denom > 0 else 0.0
        rho = float(np.clip(rho, 0.0, 0.999))
        mean_power = target.average_power + target.reserve * float(y.mean())
        return cls(mean_power=mean_power, rho=rho, step=target.update_period)

    def predict(self, now: float, t: float) -> float:
        _, y = self._require_observation()
        k = max(t - now, 0.0) / self.step
        return self.mean_power + (self.rho**k) * (y - self.mean_power)


class ScheduleForecaster(TargetForecaster):
    """Exact lookahead over a source that publishes future breakpoints.

    File-backed targets (``SteppedTarget`` from :func:`load_target_file`)
    already *know* their future: ``window(t, horizon)`` returns the upcoming
    (time, watts) breakpoints.  Forecasting what is already written down
    would be silly, so this forecaster replays the schedule exactly and
    surfaces the breakpoints as plan instants.
    """

    name = "schedule"

    def __init__(self, source: PowerTargetSource) -> None:
        super().__init__()
        if not hasattr(source, "window"):
            raise ValueError(
                f"{type(source).__name__} has no window(t, horizon) method; "
                "a schedule forecaster needs a breakpoint-publishing source"
            )
        self.source = source

    def predict(self, now: float, t: float) -> float:
        return float(self.source.target(t))

    def breakpoints(self, now: float, horizon: float) -> tuple[float, ...]:
        return tuple(time for time, _ in self.source.window(now, horizon))


def make_forecaster(
    kind: str,
    source: PowerTargetSource,
    *,
    fit_duration: float = 1800.0,
) -> TargetForecaster:
    """Build the forecaster ``kind`` for ``source``.

    ``"auto"`` picks the best available: exact schedule lookahead when the
    source publishes breakpoints, AR(1) for regulation targets, persistence
    otherwise.  ``"adversarial"`` is the drill's inverted-ramp probe.
    ``source`` is the system's raw target source, never a fault-scaled or
    held reading: the forecaster wants the schedule or signal itself.
    """
    if kind not in FORECASTER_KINDS:
        raise ValueError(
            f"unknown forecaster kind {kind!r}; expected one of {FORECASTER_KINDS}"
        )
    if kind == "auto":
        if hasattr(source, "window"):
            kind = "schedule"
        elif isinstance(source, RegulationTarget):
            kind = "ar1"
        else:
            kind = "persistence"
    if kind == "schedule":
        return ScheduleForecaster(source)
    if kind == "persistence":
        return PersistenceForecaster()
    if kind == "adversarial":
        return InvertedRampForecaster()
    # kind == "ar1"
    if not isinstance(source, RegulationTarget):
        raise ValueError(
            f"ar1 forecaster needs a RegulationTarget source, got {type(source).__name__}"
        )
    return AR1Forecaster.fit_regulation(source, fit_duration=fit_duration)
