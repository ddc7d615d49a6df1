"""Simulation clock and grid-anchored period gates.

The hardware-cluster emulator and the ANOR control plane advance a shared
:class:`SimClock` in fixed ticks.  Components that run at their own cadence
(the GEOPM agent every second, the cluster manager every few seconds) each
poll a :class:`PeriodicGate` on the tick that is due, in the fixed order of
``AnorSystem._advance``.  This mirrors the paper's asynchronous tiers (§7.2)
without threads: asynchrony comes from differing periods and
message-transport latency, and remains reproducible.
"""

from __future__ import annotations

import numpy as np


class SimClock:
    """Monotonic simulated time in seconds."""

    def __init__(self, start: float = 0.0, tick: float = 1.0):
        if tick <= 0:
            raise ValueError(f"tick must be positive, got {tick}")
        self._now = float(start)
        self.tick = float(tick)

    @property
    def now(self) -> float:
        return self._now

    def advance(self, dt: float | None = None) -> float:
        """Advance by ``dt`` seconds (default: one tick) and return new time."""
        step = self.tick if dt is None else float(dt)
        if step < 0:
            raise ValueError(f"cannot advance clock backwards by {step}")
        self._now += step
        return self._now

    def tick_times(self, count: int, dt: float | None = None) -> np.ndarray:
        """The next ``count`` instants repeated :meth:`advance` would visit.

        ``np.cumsum`` over ``[now, dt, dt, …]`` is an ordered left-to-right
        accumulation, so each element is bit-identical to the float the
        ``_now += step`` chain would produce — event-driven stepping relies
        on this to compare against gate grids with zero drift.  The clock
        itself does not move; pair with :meth:`advance_to`.
        """
        if count < 0:
            raise ValueError(f"count must be ≥ 0, got {count}")
        step = self.tick if dt is None else float(dt)
        if step < 0:
            raise ValueError(f"cannot advance clock backwards by {step}")
        chain = np.empty(count + 1)
        chain[0] = self._now
        chain[1:] = step
        return np.cumsum(chain)[1:]

    def advance_to(self, time: float) -> float:
        """Jump directly to ``time`` (an instant from :meth:`tick_times`)."""
        if time < self._now:
            raise ValueError(f"cannot advance clock backwards to {time}")
        self._now = float(time)
        return self._now


class PeriodicGate:
    """Grid-anchored period gate for poll-style control loops.

    Replaces the ``next = now + period - 1e-9`` re-anchoring pattern: that
    form leaks an epsilon per firing into the schedule, and — worse —
    re-anchoring at the *actual* fire time rounds the effective period up to
    the caller's polling interval (a 2.5 s period polled every 1 s fires
    every 3 s).  The gate instead anchors an absolute grid at the first
    firing and computes every later due-instant as ``anchor + k·period``
    with integer ``k``: over a horizon of N periods it fires exactly N
    times, regardless of tick size or float accumulation.
    """

    def __init__(self, period: float) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        self.period = float(period)
        self._anchor: float | None = None
        self._fires = 0
        # Relative tolerance absorbs accumulated tick-sum error in ``now``
        # without shifting the grid: a poll landing within period·1e-9 below
        # a grid instant counts as having reached it.
        self._eps = self.period * 1e-9

    @property
    def next_due(self) -> float:
        """The next grid instant; -inf before the first firing."""
        if self._anchor is None:
            return float("-inf")
        return self._anchor + self._fires * self.period

    @property
    def eps(self) -> float:
        """The tolerance :meth:`due` applies below a grid instant.

        Exposed so the event calendar can replay the exact comparison —
        ``now + eps < anchor + fires·period`` — when deciding how many
        ticks are free of this gate.
        """
        return self._eps

    @property
    def phase(self) -> tuple[float | None, int]:
        """``(anchor, fires)`` — enough to reconstruct the grid elsewhere."""
        return (self._anchor, self._fires)

    def restore(self, anchor: float | None, fires: int) -> None:
        """Re-install a previously captured :attr:`phase`.

        Used by head-node recovery: a restarted manager must keep firing on
        the *original* k·period grid, not re-anchor at whatever instant the
        restart happened to land on.  Instants slept through while down
        collapse into one firing, exactly like a slow poller's.
        """
        if anchor is not None and not isinstance(anchor, (int, float)):
            raise TypeError(f"anchor must be a float or None, got {anchor!r}")
        self._anchor = None if anchor is None else float(anchor)
        self._fires = int(fires)

    def due(self, now: float) -> bool:
        """True exactly when ``now`` reached the next grid instant.

        A True return advances the gate.  The first poll always fires and
        anchors the grid.  Grid instants the caller slept through collapse
        into one firing (matching the control loops this gates: a missed
        manager period is simply a late re-budget, not a burst of them).
        """
        if self._anchor is None:
            self._anchor = now
            self._fires = 1
            return True
        if now + self._eps < self._anchor + self._fires * self.period:
            return False
        skipped_past = int((now - self._anchor + self._eps) // self.period) + 1
        self._fires = max(self._fires + 1, skipped_past)
        return True
