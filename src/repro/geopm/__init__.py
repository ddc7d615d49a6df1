"""A faithful reimplementation of the GEOPM subset the paper relies on.

The paper's job tier (§4.2–§4.3) uses GEOPM to (a) count application epochs
via ``geopm_prof_epoch()`` instrumentation, (b) read package energy from the
``PKG_ENERGY_STATUS`` MSR through msr-safe, (c) enforce CPU power caps via
the ``PKG_POWER_LIMIT`` MSR, and (d) move data between a per-job endpoint and
one agent instance per node over a hierarchical communication tree.  This
package provides those four pieces against the emulated hardware in
:mod:`repro.hwsim`, whose node-indexed columns hold the agents' state.
"""

from repro.geopm.msr import MSR_PKG_ENERGY_STATUS, MSR_PKG_POWER_LIMIT, MsrBank
from repro.geopm.signals import PlatformIO, SignalNames, ControlNames
from repro.geopm.profiler import EpochProfiler
from repro.geopm.comm_tree import AgentTree
from repro.geopm.agent import AgentPolicy, AgentSample, JobAgentGroup
from repro.geopm.endpoint import Endpoint
from repro.geopm.report import ApplicationTotals, render_report

__all__ = [
    "MSR_PKG_ENERGY_STATUS",
    "MSR_PKG_POWER_LIMIT",
    "MsrBank",
    "PlatformIO",
    "SignalNames",
    "ControlNames",
    "EpochProfiler",
    "AgentTree",
    "AgentPolicy",
    "AgentSample",
    "JobAgentGroup",
    "Endpoint",
    "ApplicationTotals",
    "render_report",
]
