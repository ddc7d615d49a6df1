"""Synthetic NAS Parallel Benchmark job models and schedule generation.

The paper (§5.1) uses eight NPB job types as placeholders for application
phase behaviour.  We model each type's *true* time-per-epoch as a monotone
quadratic in the per-node CPU power cap, calibrated so the relative-slowdown
ordering and magnitudes match the paper's Fig. 3 (EP most power-sensitive,
IS least), and so the characterization fit R² scores land near the paper's
reported values (most ≥ 0.97; IS 0.92, MG 0.94, SP 0.84).
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "nas": (
            "NAS_TYPES", "JobType", "default_mix", "get_job_type",
            "long_running_mix", "misclassification_trio",
        ),
        "generator": ("PoissonScheduleGenerator", "arrival_rates_for_utilization"),
        "trace": ("JobRequest", "Schedule", "load_schedule", "save_schedule"),
    },
)
