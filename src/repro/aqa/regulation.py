"""Demand-response regulation signals y(t) ∈ [−1, 1] (paper §5.6).

The grid sends a time-varying regulation signal; the cluster's power target
is ``P̄ + R·y(t)``.  Real regulation-market signals (e.g. PJM RegD) are
bounded and mean-reverting; :class:`BoundedRandomWalkSignal` reproduces
those statistics, :class:`SinusoidSignal` gives a deterministic stand-in for
tests, and :class:`TabulatedSignal` replays a recorded series.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

from repro.util.rng import ensure_rng

__all__ = [
    "RegulationSignal",
    "BoundedRandomWalkSignal",
    "SinusoidSignal",
    "TabulatedSignal",
]


class RegulationSignal(ABC):
    """A deterministic function of time into [−1, 1]."""

    @abstractmethod
    def value(self, t: float) -> float:
        """Signal value at time ``t`` (seconds)."""

    def __call__(self, t: float) -> float:
        return self.value(t)

    def series(self, times: Sequence[float]) -> np.ndarray:
        """Sample the signal at every instant in ``times``, vectorised.

        The generic fallback loops over :meth:`value`; concrete signals
        override this with array arithmetic.  Forecaster fits
        (:meth:`repro.plan.forecast.AR1Forecaster.fit_regulation`) sample
        thousands of points through this path.
        """
        return np.array([self.value(float(t)) for t in times])


class SinusoidSignal(RegulationSignal):
    """y(t) = amplitude · sin(2πt/period + phase)."""

    def __init__(self, period: float = 600.0, amplitude: float = 1.0, phase: float = 0.0):
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
        self.period = float(period)
        self.amplitude = float(amplitude)
        self.phase = float(phase)

    def value(self, t: float) -> float:
        return self.amplitude * math.sin(2.0 * math.pi * t / self.period + self.phase)

    def series(self, times: Sequence[float]) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        return self.amplitude * np.sin(2.0 * np.pi * t / self.period + self.phase)


class BoundedRandomWalkSignal(RegulationSignal):
    """Mean-reverting AR(1) walk, precomputed on a fixed step grid.

    ``y_{k+1} = clip(ρ·y_k + ε_k)`` with ε ~ N(0, σ).  The whole trajectory
    is generated at construction so that ``value`` is a pure function of
    time — different consumers reading the signal out of order see the same
    series (determinism the simulators rely on).
    """

    def __init__(
        self,
        duration: float,
        *,
        step: float = 4.0,
        rho: float = 0.97,
        sigma: float = 0.15,
        seed: int | np.random.Generator | None = 0,
    ) -> None:
        if duration <= 0 or step <= 0:
            raise ValueError("duration and step must be positive")
        if not 0.0 <= rho <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {rho}")
        rng = ensure_rng(seed)
        n = int(math.ceil(duration / step)) + 1
        # One array draw: the same n values, from the same stream position, as
        # n scalar draws (the last is unused but still advances a shared rng).
        noise = rng.normal(0.0, sigma, n).tolist()
        y = 0.0
        values = [y]
        for eps in noise[:-1]:
            y = min(max(rho * y + eps, -1.0), 1.0)
            values.append(y)
        self.step = float(step)
        self.duration = float(duration)
        self._values = np.array(values)

    def value(self, t: float) -> float:
        if t < 0:
            raise ValueError(f"time must be ≥ 0, got {t}")
        idx = min(int(t / self.step), self._values.size - 1)
        return float(self._values[idx])

    def series(self, times: Sequence[float]) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        if np.any(t < 0):
            raise ValueError("times must be ≥ 0")
        idx = np.minimum((t / self.step).astype(int), self._values.size - 1)
        return self._values[idx]


class TabulatedSignal(RegulationSignal):
    """Zero-order-hold replay of (time, value) breakpoints.

    ``times`` must be strictly increasing: the zero-order-hold lookup is a
    binary search, and an out-of-order or duplicated breakpoint would make
    it return values from the wrong segment without any error at read time.
    Construction therefore rejects non-monotone tables, naming the first
    offending index.
    """

    def __init__(self, times: Sequence[float], values: Sequence[float]) -> None:
        t = np.asarray(times, dtype=float)
        v = np.asarray(values, dtype=float)
        if t.ndim != 1 or t.shape != v.shape or t.size == 0:
            raise ValueError(f"need matching non-empty 1-D arrays, got {t.shape}, {v.shape}")
        bad = np.flatnonzero(np.diff(t) <= 0)
        if bad.size:
            i = int(bad[0])
            raise ValueError(
                f"TabulatedSignal times must be strictly increasing: "
                f"times[{i}]={t[i]} ≥ times[{i + 1}]={t[i + 1]}"
            )
        if np.any(np.abs(v) > 1.0 + 1e-12):
            raise ValueError("regulation values must lie in [-1, 1]")
        self._times = t
        self._values = v

    def value(self, t: float) -> float:
        idx = int(np.searchsorted(self._times, t, side="right")) - 1
        idx = max(0, min(idx, self._values.size - 1))
        return float(self._values[idx])

    def series(self, times: Sequence[float]) -> np.ndarray:
        t = np.asarray(times, dtype=float)
        idx = np.searchsorted(self._times, t, side="right") - 1
        idx = np.clip(idx, 0, self._values.size - 1)
        return self._values[idx]
