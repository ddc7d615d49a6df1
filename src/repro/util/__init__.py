"""Shared utilities: deterministic RNG plumbing, simulation clock, math helpers.

Every stochastic component in this package draws randomness from an explicit
:class:`numpy.random.Generator`, usually derived through :func:`spawn_rng`
so that independent subsystems get independent, reproducible streams.
"""

from repro.util.rng import derive_rng, ensure_rng, spawn_rng
from repro.util.clock import SimClock
from repro.util.maths import (
    bisect_scalar,
    clamp,
    monotone_decreasing,
    weighted_percentile,
)
from repro.util.stats import RunningStats, confidence_interval_95, percentile

__all__ = [
    "derive_rng",
    "ensure_rng",
    "spawn_rng",
    "SimClock",
    "bisect_scalar",
    "clamp",
    "monotone_decreasing",
    "weighted_percentile",
    "RunningStats",
    "confidence_interval_95",
    "percentile",
]
