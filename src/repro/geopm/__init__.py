"""A faithful reimplementation of the GEOPM subset the paper relies on.

The paper's job tier (§4.2–§4.3) uses GEOPM to (a) count application epochs
via ``geopm_prof_epoch()`` instrumentation, (b) read package energy from the
``PKG_ENERGY_STATUS`` MSR through msr-safe, (c) enforce CPU power caps via
the ``PKG_POWER_LIMIT`` MSR, and (d) move data between a per-job endpoint and
one agent instance per node over a hierarchical communication tree.  This
package provides those four pieces against the emulated hardware in
:mod:`repro.hwsim`, whose node-indexed columns hold the agents' state.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "msr": ("MSR_PKG_ENERGY_STATUS", "MSR_PKG_POWER_LIMIT", "MsrBank"),
        "signals": ("PlatformIO", "SignalNames", "ControlNames"),
        "profiler": ("EpochProfiler",),
        "comm_tree": ("AgentTree",),
        "agent": ("AgentPolicy", "AgentSample", "JobAgentGroup"),
        "endpoint": ("Endpoint",),
        "report": ("ApplicationTotals", "render_report"),
    },
)
