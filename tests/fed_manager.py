"""A cluster manager driven without an :class:`~repro.core.framework.AnorSystem`.

The system reads the facility's two inputs before every manager round and
hands them over: ``ClusterPowerManager.step(now, feed, measured)``.  A unit
test that builds a manager alone names a target source and, optionally, a
meter instead, and :class:`FedManager` reads them the way the system reads
its own: a source that raises reads NaN, and so does a missing meter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.core.cluster_manager import ClusterPowerManager
from repro.core.targets import ConstantTarget, PowerTargetSource


@dataclass
class FedManager(ClusterPowerManager):
    target_source: PowerTargetSource = ConstantTarget(840.0)
    meter: Callable[[], float] | None = None

    def step(self, now: float, feed: float | None = None, measured: float | None = None):
        """One round on the named inputs; either one given here wins."""
        if feed is None:
            try:
                feed = float(self.target_source.target(now))
            except Exception:
                feed = math.nan
        if measured is None:
            measured = math.nan if self.meter is None else float(self.meter())
        return super().step(now, feed, measured)
