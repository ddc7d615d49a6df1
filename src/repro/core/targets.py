"""Time-varying cluster power-target sources (paper §4, §4.4.1).

The cluster-tier manager "periodically reads cluster power targets from a
file"; targets arrive every few seconds and span the demand-response bid's
average power ± reserve.  Sources here are callables of simulated time:

* :class:`ConstantTarget` — static budget experiments (Figs. 6–8).
* :class:`SteppedTarget` — piecewise-constant replay of a target file.
* :class:`RegulationTarget` — ``P̄ + R·y(t)`` from a regulation signal,
  re-sampled every ``update_period`` seconds (4 s in Fig. 9).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Sequence

import numpy as np

__all__ = [
    "PowerTargetSource",
    "ConstantTarget",
    "SteppedTarget",
    "RegulationTarget",
    "CarbonAwareTarget",
    "TariffAwareTarget",
    "HoldLastGoodTarget",
    "load_target_file",
    "save_target_file",
]

#: Seconds (s) a stalled feed's last good target is held unchanged: a few
#: missed 4 s updates are noise, not a facility asking for less.
HOLD_GRACE = 30.0
#: Past the grace window the held target decays as exp(-rate · s) toward the
#: floor (1/s): halved in about 140 s, the conservative direction.
HOLD_DECAY_RATE = 0.005


class PowerTargetSource(ABC):
    """Maps simulated time to the cluster power target in watts."""

    @abstractmethod
    def target(self, now: float) -> float:
        """Cluster power target (W) in force at time ``now``."""

    def __call__(self, now: float) -> float:
        return self.target(now)


class ConstantTarget(PowerTargetSource):
    """A fixed cluster power budget."""

    def __init__(self, watts: float) -> None:
        if watts <= 0:
            raise ValueError(f"target must be positive, got {watts}")
        self.watts = float(watts)

    def target(self, now: float) -> float:
        return self.watts


class SteppedTarget(PowerTargetSource):
    """Piecewise-constant targets from (time, watts) breakpoints.

    Before the first breakpoint the first value applies; after the last, the
    last value holds — the behaviour of a manager re-reading a target file.
    """

    def __init__(self, times: Sequence[float], watts: Sequence[float]) -> None:
        t = np.asarray(times, dtype=float)
        w = np.asarray(watts, dtype=float)
        if t.ndim != 1 or t.shape != w.shape or t.size == 0:
            raise ValueError(f"need matching non-empty 1-D arrays, got {t.shape}, {w.shape}")
        # NaN compares false both ways: it would pass the two checks below.
        if not (np.isfinite(t).all() and np.isfinite(w).all()):
            raise ValueError("breakpoint times and targets must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("breakpoint times must be strictly increasing")
        if np.any(w <= 0):
            raise ValueError("targets must be positive")
        self._times = t
        self._watts = w

    def target(self, now: float) -> float:
        idx = int(np.searchsorted(self._times, now, side="right")) - 1
        idx = max(0, min(idx, self._watts.size - 1))
        return float(self._watts[idx])

    def window(self, t: float, horizon: float) -> tuple[tuple[float, float], ...]:
        """Upcoming known breakpoints: ``(time, watts)`` with t < time ≤ t+horizon.

        A file-backed target's future is already written down; the
        predictive planner consumes these exact steps instead of
        forecasting them, and registers the times as plan instants.
        """
        if horizon < 0:
            raise ValueError(f"horizon must be ≥ 0, got {horizon}")
        lo = int(np.searchsorted(self._times, t, side="right"))
        hi = int(np.searchsorted(self._times, t + horizon, side="right"))
        return tuple(
            (float(self._times[i]), float(self._watts[i])) for i in range(lo, hi)
        )


class CarbonAwareTarget(PowerTargetSource):
    """Power target following grid carbon intensity (paper §3).

    "Data center operators may react to time-varying carbon intensity":
    the cluster runs near ``p_max`` when the grid is clean and throttles
    toward ``p_min`` when it is dirty.  ``intensity`` maps time to
    gCO₂/kWh; the target interpolates linearly between the configured
    intensity band's endpoints.
    """

    def __init__(
        self,
        p_min: float,
        p_max: float,
        intensity,
        *,
        clean_intensity: float = 100.0,
        dirty_intensity: float = 500.0,
        update_period: float = 300.0,
    ) -> None:
        if not 0 < p_min < p_max:
            raise ValueError(f"need 0 < p_min < p_max, got {p_min}, {p_max}")
        if not clean_intensity < dirty_intensity:
            raise ValueError("need clean_intensity < dirty_intensity")
        if update_period <= 0:
            raise ValueError(f"update_period must be positive, got {update_period}")
        self.p_min = float(p_min)
        self.p_max = float(p_max)
        self.intensity = intensity
        self.clean_intensity = float(clean_intensity)
        self.dirty_intensity = float(dirty_intensity)
        self.update_period = float(update_period)

    def target(self, now: float) -> float:
        window = math.floor(now / self.update_period) * self.update_period
        g = float(self.intensity(window))
        frac = (g - self.clean_intensity) / (
            self.dirty_intensity - self.clean_intensity
        )
        frac = min(max(frac, 0.0), 1.0)
        return self.p_max - frac * (self.p_max - self.p_min)


class TariffAwareTarget(PowerTargetSource):
    """Power target following time-of-use electricity pricing (paper §3).

    Piecewise-daily tariff: during hours whose price exceeds
    ``expensive_threshold`` the cluster throttles to ``p_min``; otherwise it
    runs at ``p_max``.  ``prices_by_hour`` has 24 entries ($/kWh).
    """

    def __init__(
        self,
        p_min: float,
        p_max: float,
        prices_by_hour,
        *,
        expensive_threshold: float,
    ) -> None:
        if not 0 < p_min < p_max:
            raise ValueError(f"need 0 < p_min < p_max, got {p_min}, {p_max}")
        prices = [float(p) for p in prices_by_hour]
        if len(prices) != 24:
            raise ValueError(f"need 24 hourly prices, got {len(prices)}")
        if any(p < 0 for p in prices):
            raise ValueError("prices must be non-negative")
        self.p_min = float(p_min)
        self.p_max = float(p_max)
        self.prices = prices
        self.expensive_threshold = float(expensive_threshold)

    def target(self, now: float) -> float:
        hour = int(now // 3600.0) % 24
        if self.prices[hour] > self.expensive_threshold:
            return self.p_min
        return self.p_max


class HoldLastGoodTarget:
    """Fault-tolerant filter on the target feed: hold the last good target
    with bounded decay.

    The facility's target feed is an external dependency — a regulation
    signal file, a carbon-intensity API — and it can stall, raise, or emit
    NaN/inf rows.  The cluster manager must keep budgeting regardless, so it
    passes each round's feed reading (NaN when the source raised) through
    :meth:`read`, which:

    * passes finite positive values straight through (recording them);
    * on a bad reading (non-finite or non-positive), holds the last good
      value for ``HOLD_GRACE`` seconds;
    * past the grace window, decays the held value exponentially (at
      ``HOLD_DECAY_RATE`` per second) toward
      ``floor`` (the lowest enforceable cluster power) — a conservative
      ramp-down, since a long-silent feed may mean the facility wants load
      shed and the safe direction is downward;
    * before any good reading has arrived, serves ``floor``.

    ``degraded_reads`` counts how many reads were served from the fallback
    path, for observability.
    """

    def __init__(self, *, floor: float) -> None:
        if floor <= 0:
            raise ValueError(f"floor must be positive, got {floor}")
        self.floor = float(floor)
        self.degraded_reads = 0
        self._last_good: float | None = None
        self._last_good_time = 0.0

    def state_dict(self) -> dict:
        """Hold-last-good state for checkpointing (JSON-serialisable)."""
        return {
            "last_good": self._last_good,
            "last_good_time": self._last_good_time,
            "degraded_reads": self.degraded_reads,
        }

    def restore_state(self, state: dict) -> None:
        """Re-install state captured by :meth:`state_dict`.

        A recovered manager must not treat a stalled feed as freshly stalled:
        the grace window and decay are anchored at the *original* last-good
        read, so a feed that was already decaying keeps decaying.
        """
        last_good = state.get("last_good")
        self._last_good = None if last_good is None else float(last_good)
        self._last_good_time = float(state.get("last_good_time", 0.0))
        self.degraded_reads = int(state.get("degraded_reads", 0))

    def read(self, now: float, value: float) -> float:
        """The target to budget at ``now``, given the feed's ``value``."""
        if math.isfinite(value) and value > 0:
            self._last_good = value
            self._last_good_time = now
            return value
        self.degraded_reads += 1
        if self._last_good is None:
            return self.floor
        held = max(0.0, now - self._last_good_time)
        if held <= HOLD_GRACE:
            return self._last_good
        decayed = self._last_good * math.exp(-HOLD_DECAY_RATE * (held - HOLD_GRACE))
        return max(decayed, self.floor)


def save_target_file(target: PowerTargetSource, path, *,
                     duration: float, step: float = 4.0) -> None:
    """Materialise any target source into the paper's file format (§4.1).

    The cluster-tier process "periodically reads cluster power targets from
    a file"; this writes `time_s,target_w` CSV rows sampled every ``step``
    seconds so experiments are replayable byte-for-byte.
    """
    if duration <= 0 or step <= 0:
        raise ValueError("duration and step must be positive")
    times = np.arange(0.0, duration + 1e-9, step)
    with open(path, "w") as fh:
        fh.write("time_s,target_w\n")
        for t in times:
            fh.write(f"{t:.3f},{target.target(float(t)):.3f}\n")


def load_target_file(path) -> SteppedTarget:
    """Read a target file written by :func:`save_target_file`."""
    times: list[float] = []
    watts: list[float] = []
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "time_s,target_w":
            raise ValueError(f"{path}: not a power-target file (header {header!r})")
        for line in fh:
            line = line.strip()
            if not line:
                continue
            t_str, w_str = line.split(",")
            times.append(float(t_str))
            watts.append(float(w_str))
    if not times:
        raise ValueError(f"{path}: no target rows")
    return SteppedTarget(times, watts)


class RegulationTarget(PowerTargetSource):
    """Demand-response target ``P̄ + R·y(t)`` (paper §5.6).

    ``signal`` maps time to y ∈ [−1, 1].  The target is held constant within
    each ``update_period`` window — "new power targets arrive once every few
    seconds" (§4.4.1); Fig. 9 uses 4 s.
    """

    def __init__(
        self,
        average_power: float,
        reserve: float,
        signal,
        *,
        update_period: float = 4.0,
    ) -> None:
        if average_power <= 0:
            raise ValueError(f"average power must be positive, got {average_power}")
        if reserve < 0:
            raise ValueError(f"reserve must be ≥ 0, got {reserve}")
        if reserve >= average_power:
            raise ValueError(
                f"reserve {reserve} ≥ average power {average_power}: "
                "target could reach zero"
            )
        if update_period <= 0:
            raise ValueError(f"update_period must be positive, got {update_period}")
        self.average_power = float(average_power)
        self.reserve = float(reserve)
        self.signal = signal
        self.update_period = float(update_period)

    def target(self, now: float) -> float:
        window_start = math.floor(now / self.update_period) * self.update_period
        y = float(self.signal(window_start))
        if not -1.0 - 1e-9 <= y <= 1.0 + 1e-9:
            raise ValueError(f"regulation signal out of range at t={window_start}: {y}")
        return self.average_power + self.reserve * y
