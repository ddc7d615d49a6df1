"""Emulated model-specific registers (MSRs) for CPU packages.

The paper's GEOPM deployment reads ``PKG_ENERGY_STATUS`` and writes
``PKG_POWER_LIMIT`` through the msr-safe kernel module (§5.4).  We emulate
the two registers with realistic semantics:

* ``PKG_ENERGY_STATUS`` is a 32-bit accumulating counter in units of
  2⁻¹⁶ J (≈15.3 µJ), which **wraps around** every few hours at package TDP.
  Consumers must compute modular deltas, as real power managers do.
* ``PKG_POWER_LIMIT`` stores the RAPL cap in units of 2⁻³ W (0.125 W), so
  written caps are quantised — another real-hardware effect the control
  plane has to live with.
"""

from __future__ import annotations

import numpy as np

from repro.workloads.nas import PACKAGE_MIN_POWER, PACKAGE_TDP

__all__ = [
    "MSR_PKG_POWER_LIMIT",
    "MSR_PKG_ENERGY_STATUS",
    "ENERGY_UNIT_JOULES",
    "POWER_UNIT_WATTS",
    "ENERGY_COUNTER_BITS",
    "MsrBank",
    "energy_counter_delta",
]

#: Register addresses mirror the Intel SDM so code reads like the real thing.
MSR_PKG_POWER_LIMIT = 0x610
MSR_PKG_ENERGY_STATUS = 0x611

#: RAPL energy status unit: 2**-16 joules.
ENERGY_UNIT_JOULES = 1.0 / (1 << 16)
#: RAPL power limit unit: 2**-3 watts.
POWER_UNIT_WATTS = 0.125
#: The energy counter is 32 bits wide and wraps silently.
ENERGY_COUNTER_BITS = 32

_ENERGY_MASK = (1 << ENERGY_COUNTER_BITS) - 1


def energy_counter_delta(before: int, after: int) -> float:
    """Joules elapsed between two raw counter reads, handling wraparound."""
    raw = (after - before) & _ENERGY_MASK
    return raw * ENERGY_UNIT_JOULES


class MsrBank:
    """The MSR file of one CPU package.

    The hardware emulator deposits consumed energy with
    :meth:`accumulate_energy`; agents read/write raw register values exactly
    as they would through ``/dev/cpu/*/msr_safe``.
    """

    def __init__(
        self,
        *,
        tdp_watts: float = PACKAGE_TDP,
        min_power_watts: float = PACKAGE_MIN_POWER,
        energy: np.ndarray | None = None,
        limit: np.ndarray | None = None,
    ):
        if min_power_watts <= 0 or tdp_watts <= min_power_watts:
            raise ValueError(
                f"need 0 < min_power < tdp, got {min_power_watts}, {tdp_watts}"
            )
        self.tdp_watts = float(tdp_watts)
        self.min_power_watts = float(min_power_watts)
        # Both registers are one-element arrays so an emulated cluster can
        # hand in views of its node-indexed columns and step every package in
        # one array pass; a standalone bank allocates its own cells.
        # ``energy``: unwrapped joules, the emulator's ground truth — the raw
        # 32-bit counter is derived from it on read.  ``limit``: the raw RAPL
        # limit register.
        self._energy = np.zeros(1) if energy is None else energy
        self._limit = np.zeros(1, dtype=np.int64) if limit is None else limit
        self._limit[0] = int(round(tdp_watts / POWER_UNIT_WATTS))

    # ---------------------------------------------------------- register API

    def read(self, address: int) -> int:
        if address == MSR_PKG_ENERGY_STATUS:
            return int(round(float(self._energy[0]) / ENERGY_UNIT_JOULES)) & _ENERGY_MASK
        if address == MSR_PKG_POWER_LIMIT:
            return int(self._limit[0])
        raise KeyError(f"unsupported MSR address {address:#x}")

    def write(self, address: int, value: int) -> None:
        if address == MSR_PKG_POWER_LIMIT:
            if value < 0:
                raise ValueError(f"power limit cannot be negative: {value}")
            self._limit[0] = int(value)
            return
        if address == MSR_PKG_ENERGY_STATUS:
            raise PermissionError("PKG_ENERGY_STATUS is read-only")
        raise KeyError(f"unsupported MSR address {address:#x}")

    # ----------------------------------------------------- watt-level helpers

    @property
    def power_limit_watts(self) -> float:
        """The cap currently programmed, clamped into the actuatable range."""
        requested = int(self._limit[0]) * POWER_UNIT_WATTS
        return min(max(requested, self.min_power_watts), self.tdp_watts)

    def set_power_limit_watts(self, watts: float) -> float:
        """Program a cap in watts; returns the quantised value stored."""
        clamped = min(max(watts, self.min_power_watts), self.tdp_watts)
        self.write(MSR_PKG_POWER_LIMIT, int(round(clamped / POWER_UNIT_WATTS)))
        return self.power_limit_watts

    # ------------------------------------------------------ emulator plumbing

    def accumulate_energy(self, joules: float) -> None:
        """Deposit consumed energy (called by the hardware emulator only)."""
        if joules < 0:
            raise ValueError(f"cannot consume negative energy: {joules}")
        self._energy[0] += joules

    @property
    def total_energy_joules(self) -> float:
        """Unwrapped cumulative energy — ground truth for tests/metering."""
        return float(self._energy[0])
