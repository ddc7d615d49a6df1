"""One emulated compute node: two CPU packages behind RAPL-style MSRs.

A node exposes the same interface the paper's GEOPM agents consume — a
:class:`~repro.geopm.signals.PlatformIO` over per-package MSR banks.  Its
physics state (energy, last draw, crashed flag) is a row of the cluster's
columns, which the cluster's window kernel steps.
"""

from __future__ import annotations

import numpy as np

from repro.geopm.msr import MsrBank
from repro.geopm.signals import PlatformIO
from repro.workloads.nas import IDLE_NODE_POWER, NODE_PACKAGES, PACKAGE_MIN_POWER, PACKAGE_TDP

__all__ = ["Node"]


class Node:
    """An emulated dual-package compute node.

    Parameters
    ----------
    node_id:
        Stable identifier within the cluster.
    packages:
        CPU package count (the testbed's ``NODE_PACKAGES``), each actuated over
        ``PACKAGE_MIN_POWER``–``PACKAGE_TDP``.  With no job computing on it
        (also during job setup/teardown, §7.2) the node draws
        ``IDLE_NODE_POWER``.
    perf_multiplier:
        Node-specific performance-variation coefficient: epoch progress rate
        is multiplied by this (1.0 = nominal; §6.4 draws these from N(1, σ)).
    cells:
        ``(energy, limit, power, down, meter)`` views of one row of a
        cluster's node-indexed columns — per-package joules, per-package raw
        RAPL limit, last realised power, crashed flag, and the meter column
        its :class:`~repro.geopm.signals.PlatformIO` reads through (the
        power-read baseline, the agent tier's cells).  The node's mutable state lives
        there so the cluster can step the whole fleet, and every agent, in
        one array pass; a standalone node allocates its own row.
    """

    def __init__(
        self,
        node_id: int,
        *,
        clock_fn,
        packages: int = NODE_PACKAGES,
        perf_multiplier: float = 1.0,
        cells: tuple | None = None,
    ) -> None:
        if packages < 1:
            raise ValueError(f"node needs ≥ 1 package, got {packages}")
        if perf_multiplier <= 0:
            raise ValueError(f"perf_multiplier must be positive, got {perf_multiplier}")
        self.node_id = int(node_id)
        energy, limit, self._power, self._down, meter = cells if cells is not None else (
            np.zeros(packages),
            np.zeros(packages, dtype=np.int64),
            np.zeros(1),
            np.zeros(1, dtype=bool),
            None,
        )
        self.banks = [
            MsrBank(
                tdp_watts=PACKAGE_TDP,
                min_power_watts=PACKAGE_MIN_POWER,
                energy=energy[p : p + 1],
                limit=limit[p : p + 1],
            )
            for p in range(packages)
        ]
        self.pio = PlatformIO(self.banks, clock_fn=clock_fn, cells=meter)
        self.perf_multiplier = float(perf_multiplier)
        self.job_id: str | None = None  # set by the cluster on allocation
        self._power[0] = IDLE_NODE_POWER

    # ----------------------------------------------------------- cap queries

    @property
    def power_cap(self) -> float:
        """Total node CPU cap currently programmed across packages (W)."""
        return sum(b.power_limit_watts for b in self.banks)

    @property
    def max_power_cap(self) -> float:
        return sum(b.tdp_watts for b in self.banks)

    @property
    def min_power_cap(self) -> float:
        return sum(b.min_power_watts for b in self.banks)

    @property
    def is_idle(self) -> bool:
        return self.job_id is None and not self.failed

    # ------------------------------------------------------------- failures

    @property
    def failed(self) -> bool:
        """Crashed: draws nothing, unschedulable."""
        return bool(self._down[0])

    def fail(self) -> None:
        """Crash the node: it stops drawing power and leaves the idle pool.

        The cluster kills whatever job was running here first
        (:meth:`EmulatedCluster.fail_node`), so a failed node is always free;
        it keeps its MSR state (energy counters survive a reboot on real
        hardware) but reports zero draw until restored.
        """
        if self.job_id is not None:
            raise RuntimeError(f"node {self.node_id} runs job {self.job_id!r}: kill it first")
        self._down[0] = True
        self._power[0] = 0.0

    def restore(self) -> None:
        """Bring a failed node back into the idle pool."""
        self._down[0] = False

    # -------------------------------------------------------------- metering

    @property
    def last_power(self) -> float:
        """Realised power of the most recent tick (facility metering view)."""
        return float(self._power[0])

    @property
    def total_energy(self) -> float:
        """Unwrapped cumulative CPU energy (J), ground truth for tests."""
        return sum(b.total_energy_joules for b in self.banks)
