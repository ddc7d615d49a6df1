"""GEOPM-style signal/control name registry bound to emulated hardware.

GEOPM exposes hardware telemetry as named *signals* and knobs as named
*controls* (§4 of the paper names ``CPU_ENERGY`` and
``CPU_POWER_LIMIT_CONTROL``, backed by the ``PKG_ENERGY_STATUS`` and
``PKG_POWER_LIMIT`` MSRs).  :class:`PlatformIO` is the per-node access layer;
it aggregates across the node's CPU packages.  What a read keeps between
reads — the last raw counters and the power-read baseline — is a node's
meter cells, which :func:`read_meters` advances for one node or for every
node of every running job at once (the agents' pass,
:class:`~repro.geopm.agent.JobAgentGroup`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.geopm.msr import (
    ENERGY_COUNTER_BITS,
    ENERGY_UNIT_JOULES,
    MSR_PKG_ENERGY_STATUS,
    MsrBank,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.geopm.profiler import EpochProfiler

__all__ = ["SignalNames", "ControlNames", "PlatformIO", "METER_START", "read_meters"]

_COUNTER_SPAN = float(1 << ENERGY_COUNTER_BITS)

#: A node's meter cells, one column per node: the power the last
#: ``CPU_POWER`` read returned, the energy unwrapped from counter deltas so
#: far, a constant 1 (the node itself, so power, energy and 1 are what an
#: agent sums over its subtree), the time and energy of the last power read
#: that moved, then each package's ``PKG_ENERGY_STATUS`` reading as the
#: last read saw it, in counter units (only a difference of two is taken
#: modulo the 32-bit counter, so a reading need not be).  Before the first read the last power
#: read sits at −∞ with 0 J, so the first read averages over an infinite
#: span: 0 W, and it becomes the baseline.
METER_START = (0.0, 0.0, 1.0, -np.inf, 0.0)


class SignalNames:
    """Signal identifiers mirroring the paper's GEOPM configuration (§5.4)."""

    CPU_ENERGY = "CPU_ENERGY"
    CPU_POWER = "CPU_POWER"
    EPOCH_COUNT = "EPOCH_COUNT"
    TIME = "TIME"


class ControlNames:
    """Control identifiers (§5.4)."""

    CPU_POWER_LIMIT_CONTROL = "CPU_POWER_LIMIT_CONTROL"


def read_meters(
    joules: np.ndarray, meter: np.ndarray, now: float | None = None, where=True
) -> None:
    """``CPU_ENERGY`` — and, given ``now``, ``CPU_POWER`` — for columns of
    nodes, in place.

    ``joules`` ``(n, P)`` is each package's unwrapped energy, the emulator's
    ground truth, whose ``PKG_ENERGY_STATUS`` counter a read sees; ``meter``
    holds the nodes' :data:`METER_START` cells, one column each.  Each
    package's modular counter delta is added to the node's energy in
    package order (so a counter that wrapped since the last read still
    counts).  A power read then averages the energy since the last power
    read over the time since it and becomes the new baseline; at the same
    instant (or earlier) it keeps the last power and moves nothing.  Only
    the columns ``where`` marks are read (True: all of them).  Readings are whole numbers of
    counter units below 2⁵³ held in floats, so their differences and
    residues are exact: the delta of two 32-bit counters.
    """
    raw = meter[5:]
    counters = np.rint(joules.T / ENERGY_UNIT_JOULES)
    delta = np.mod(counters - raw, _COUNTER_SPAN) * ENERGY_UNIT_JOULES
    energy = meter[1] + delta[0]
    for more in delta[1:]:
        energy += more
    np.copyto(raw, counters, where=where)
    np.copyto(meter[1], energy, where=where)
    if now is None:
        return
    dt = now - meter[3]
    fresh = dt > 0 if where is True else (dt > 0) & where
    np.divide(energy - meter[4], dt, out=meter[0], where=fresh)
    np.copyto(meter[3], now, where=fresh)
    np.copyto(meter[4], energy, where=fresh)


class PlatformIO:
    """Per-node signal/control access over the node's MSR banks.

    ``CPU_ENERGY`` sums package energy counters (handling 32-bit wraparound
    per package), ``CPU_POWER_LIMIT_CONTROL`` splits a node-level cap evenly
    across packages — matching how GEOPM's power governor treats
    multi-package nodes.  ``cells`` is the node's meter column
    (:data:`METER_START`): in an emulated cluster, a view of the agent
    tier's node-indexed columns, so a read here and the agents' pass share
    one baseline; a standalone PlatformIO allocates its own.
    """

    def __init__(
        self,
        msr_banks: Sequence[MsrBank],
        *,
        clock_fn,
        profiler: "EpochProfiler | None" = None,
        cells: np.ndarray | None = None,
    ) -> None:
        if not msr_banks:
            raise ValueError("a node needs at least one CPU package")
        self._banks = list(msr_banks)
        self._clock_fn = clock_fn
        self._profiler = profiler
        if cells is None:
            counters = [b.read(MSR_PKG_ENERGY_STATUS) for b in self._banks]
            cells = np.array([*METER_START, *counters], dtype=float)[:, None]
        self._meter = cells

    # --------------------------------------------------------------- signals

    def read_signal(self, name: str) -> float:
        if name == SignalNames.TIME:
            return float(self._clock_fn())
        if name == SignalNames.CPU_ENERGY:
            self._read(None)
            return float(self._meter[1, 0])
        if name == SignalNames.CPU_POWER:
            self._read(float(self._clock_fn()))
            return float(self._meter[0, 0])
        if name == SignalNames.EPOCH_COUNT:
            if self._profiler is None:
                raise KeyError("no profiler attached; EPOCH_COUNT unavailable")
            return float(self._profiler.epoch_count)
        raise KeyError(f"unknown signal {name!r}")

    def _read(self, now: float | None) -> None:
        joules = np.array([[b.total_energy_joules for b in self._banks]])
        read_meters(joules, self._meter, now)

    # -------------------------------------------------------------- controls

    def write_control(self, name: str, value: float) -> None:
        if name == ControlNames.CPU_POWER_LIMIT_CONTROL:
            per_package = value / len(self._banks)
            for bank in self._banks:
                bank.set_power_limit_watts(per_package)
            return
        raise KeyError(f"unknown control {name!r}")

    def read_control(self, name: str) -> float:
        if name == ControlNames.CPU_POWER_LIMIT_CONTROL:
            return sum(b.power_limit_watts for b in self._banks)
        raise KeyError(f"unknown control {name!r}")

    @property
    def num_packages(self) -> int:
        return len(self._banks)

    def attach_profiler(self, profiler: "EpochProfiler") -> None:
        self._profiler = profiler

    def detach_profiler(self) -> None:
        self._profiler = None
