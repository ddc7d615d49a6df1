"""ANOR: an end-to-end HPC framework for dynamic power objectives.

A from-scratch reproduction of Wilson et al., *An End-to-End HPC Framework
for Dynamic Power Objectives* (SC-W 2023): a two-tier, feedback-driven power
management framework for HPC clusters participating in demand response,
together with every substrate its evaluation needs — a GEOPM-subset runtime,
an emulated RAPL cluster, the AQA demand-response layer, and a 1000-node
tabular simulator.

Quick start::

    from repro import AnorConfig, AnorSystem, ConstantTarget, EvenSlowdownBudgeter

    system = AnorSystem(
        budgeter=EvenSlowdownBudgeter(),
        target_source=ConstantTarget(840.0),
        config=AnorConfig(num_nodes=4, seed=42),
    )
    system.submit_now("bt-0", "bt")
    system.submit_now("sp-0", "sp")
    result = system.run(until_idle=True)

See ``examples/`` for runnable scenarios and ``repro.experiments`` for the
paper-figure harnesses.
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

_exports, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "core.framework": ("AnorConfig", "AnorSystem"),
        "core.targets": ("ConstantTarget", "RegulationTarget", "SteppedTarget"),
        "budget.even_power": ("EvenPowerBudgeter",),
        "budget.even_slowdown": ("EvenSlowdownBudgeter",),
        "budget.uniform": ("UniformCapBudgeter",),
        "modeling.classifier": ("JobClassifier",),
        "modeling.online": ("OnlineModeler",),
        "modeling.quadratic": ("QuadraticPowerModel",),
        "workloads.nas": ("NAS_TYPES", "JobType"),
        "workloads.generator": ("PoissonScheduleGenerator",),
        "workloads.trace": ("Schedule",),
    },
)
__all__ = ["__version__", *_exports]
