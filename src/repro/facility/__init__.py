"""Facility tier: coordinated power across multiple clusters (paper §8).

The paper's future-work section proposes extending ANOR "by treating the
facility as a power provider to each member of the cluster tier", e.g. for
sites bringing up a next-generation cluster while the previous generation
still runs under shared power infrastructure that cannot feed both at peak.

This package adds that third tier: a :class:`FacilityCoordinator` splits a
time-varying facility power budget across member clusters using the same
budgeter abstractions the cluster tier uses for jobs — each member is
described to the facility by an aggregate power-performance model, so the
facility can run either an even-power or an even-slowdown split.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "breaker": ("PowerBreaker",),
        "coordinator": (
            "ClusterMember", "FacilityCoordinator", "MutableTarget",
            "aggregate_cluster_model",
        ),
        "shed": (
            "ShedController", "ShedLadder", "SEVERITY_LEVELS",
            "SEVERITY_VALUES", "SHED_ACTIONS", "SHED_CLASSES", "SHED_PLANS",
        ),
    },
)
