"""ANOR core: the two-tier control plane and its end-to-end wiring (§3–§4).

* :mod:`repro.core.messages` — the control/status message vocabulary between
  tiers.
* :mod:`repro.core.transport` — latency-modelled message channels standing in
  for the paper's TCP (cluster ↔ job endpoint) links.
* :mod:`repro.core.targets` — time-varying cluster power-target sources (the
  cluster manager "periodically reads cluster power targets from a file").
* :mod:`repro.core.job_endpoint` — the per-job power-modeling process.
* :mod:`repro.core.cluster_manager` — the head-node power manager.
* :mod:`repro.core.framework` — wires an emulated cluster, a job schedule,
  and both tiers into a runnable system (the Figs. 6–10 harness).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "messages": ("BudgetMessage", "GoodbyeMessage", "HelloMessage", "StatusMessage"),
        "transport": ("LatencyChannel", "TcpLink"),
        "targets": (
            "CarbonAwareTarget", "ConstantTarget", "PowerTargetSource",
            "RegulationTarget", "SteppedTarget", "TariffAwareTarget",
            "load_target_file", "save_target_file",
        ),
        "job_endpoint": ("JobTierEndpoint",),
        "round": ("JobRecord",),
        "cluster_manager": ("ClusterPowerManager",),
        "framework": ("AnorSystem", "AnorConfig"),
    },
)
