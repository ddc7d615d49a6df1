"""Cluster-tier power budgeters (paper §4.1, §4.4.3).

A *power budgeter* splits the cluster's available CPU power across running
jobs.  The paper evaluates:

* **Even power caps** (performance-unaware, the AQA rule): every job sits at
  the same fraction γ of its achievable power range.
* **Even slowdown** (performance-aware): every job is predicted to slow down
  by the same factor s, using the job tier's power-performance models.
* **Uniform node caps**: the same cap on every active node (the baseline
  "uniform power distribution" of Fig. 10).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("BudgetAllocation", "JobBudgetRequest", "PowerBudgeter"),
        "even_power": ("EvenPowerBudgeter",),
        "even_slowdown": ("EvenSlowdownBudgeter",),
        "uniform": ("UniformCapBudgeter",),
    },
)
