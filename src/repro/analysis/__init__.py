"""Offline analyses and metrics shared by the experiment harnesses."""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "tracking": (
            "TrackingConstraint", "error_percentile", "fraction_within",
            "tracking_error_series",
        ),
        "export": (
            "export_fig4", "export_fig5", "export_fig9", "export_fig11",
            "export_power_trace", "export_series_by_key",
        ),
        "slowdown": ("JobScenario", "estimate_scenario_slowdowns", "sweep_budgets"),
    },
)
