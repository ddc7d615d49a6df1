"""Emulated compute cluster standing in for the paper's 16-node testbed.

The paper evaluates ANOR on 16 nodes of dual-package Intel Xeon Gold 6152
(140 W TDP per socket) controlled through RAPL MSRs (§5.4–§5.5).  The control
plane only ever observes those nodes through energy counters and power-limit
registers, so this emulator reproduces exactly that surface: per-package MSR
banks (:mod:`repro.geopm.msr`), capped power draw with measurement noise,
epoch progress that slows according to each job type's ground-truth
power-performance curve, per-node performance-variation multipliers, and the
low-power setup/teardown phases §7.2 identifies as a real-world confounder.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "node": ("Node",),
        "job": ("JobPhase", "RunningJob"),
        "cluster": ("EmulatedCluster",),
        "platform_power": ("ClusterPowerModel", "NodePowerModel"),
    },
)
