"""Shared utilities: deterministic RNG plumbing, simulation clock, math helpers.

Every stochastic component in this package draws randomness from an explicit
:class:`numpy.random.Generator`, usually derived through :func:`spawn_rng`
so that independent subsystems get independent, reproducible streams.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "rng": ("derive_rng", "ensure_rng", "spawn_rng"),
        "clock": ("SimClock",),
        "maths": ("bisect_scalar", "clamp", "monotone_decreasing", "weighted_percentile"),
        "stats": ("RunningStats", "confidence_interval_95", "percentile"),
    },
)
