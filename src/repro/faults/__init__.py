"""Deterministic fault injection for the ANOR control plane.

The paper evaluates on a healthy 16-node cluster; this package supplies the
faults a production deployment must survive — node crashes, silent endpoint
processes, lossy/slow links, facility-meter outages, target-feed outages,
and corrupt status messages — as a scripted, seeded, perfectly replayable
event stream.

* :mod:`repro.faults.events` — the fault-event vocabulary (pure data; each
  event checks its own fields).
* :mod:`repro.faults.schedule` — :class:`FaultSchedule`: an ordered event
  list, built by hand, from the standard acceptance load, or drawn from a
  seeded stochastic process: a fault mix maps event templates to rates, and
  each template's Poisson arrivals are copies of it.
* :mod:`repro.faults.injector` — :class:`FaultInjector`: drives a schedule
  against a running :class:`~repro.core.framework.AnorSystem`, keeping a
  bit-identical event log for a given (seed, schedule) pair.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "events": (
            "FaultEvent", "NodeCrash", "EndpointCrash", "HeadNodeCrash",
            "HeadNodeRestart", "LinkDegradation", "NetworkPartition",
            "PartitionStart", "PartitionEnd", "MeterOutage", "TargetOutage",
            "CorruptStatus", "ByzantineModel", "StuckActuator", "MeterDrift",
            "FeederLoss", "ThermalDerate", "DemandResponseEmergency",
        ),
        "injector": ("FaultInjector",),
        "schedule": ("FaultSchedule",),
    },
)
