"""Power-tracking accuracy metrics (paper §4.4.2, §6.3).

Tracking error is "calculated as distance between the measured power and the
target power, divided by the reserve".  The paper's constraint allows "no
more than 30 % error for at least 90 % of the time"; §6.3 reports measured
error under 24 % at the 90th percentile in the worst case and within 17 %
otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "tracking_error_series",
    "fraction_within",
    "error_percentile",
    "TrackingConstraint",
]


def tracking_error_series(
    trace: np.ndarray,
    reserve: float,
    *,
    t_start: float | None = None,
    t_end: float | None = None,
    smooth_samples: int = 1,
) -> np.ndarray:
    """Per-sample tracking error from a (time, target, measured) trace.

    ``smooth_samples`` applies a moving average to the *measured* column
    before scoring.  Demand-response compliance is assessed on energy-based
    power over the signal period (the paper's CPU power comes from energy
    counters, §5.4), so scoring the instantaneous 1 s meter would penalise
    sub-period churn the grid never sees; pass the target-update period
    (4 samples at 1 Hz for Fig. 9) to evaluate like-for-like.  Near either
    end of the trace the window is cut short, not zero-padded.
    """
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 2 or trace.shape[1] != 3:
        raise ValueError(f"expected (n, 3) trace, got {trace.shape}")
    if reserve <= 0:
        raise ValueError(f"reserve must be positive, got {reserve}")
    if smooth_samples < 1:
        raise ValueError(f"smooth_samples must be ≥ 1, got {smooth_samples}")
    measured = trace[:, 2]
    if smooth_samples > 1 and measured.size >= smooth_samples:
        # Each sample averages the samples of its window that lie inside the
        # trace: ``mode="same"`` pads with zeros, which would drag the first
        # and last few averages down.  The interior divides by the full width.
        kernel = np.ones(smooth_samples)
        inside = np.convolve(np.ones(measured.size), kernel, mode="same")
        measured = np.convolve(measured, kernel, mode="same") / inside
    mask = np.ones(trace.shape[0], dtype=bool)
    if t_start is not None:
        mask &= trace[:, 0] >= t_start
    if t_end is not None:
        mask &= trace[:, 0] <= t_end
    return np.abs(measured[mask] - trace[mask, 1]) / reserve


def fraction_within(errors: Sequence[float], limit: float) -> float:
    """Fraction of samples with error ≤ limit."""
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise ValueError("no error samples")
    return float(np.mean(arr <= limit))


def error_percentile(errors: Sequence[float], q: float = 90.0) -> float:
    arr = np.asarray(errors, dtype=float)
    if arr.size == 0:
        raise ValueError("no error samples")
    return float(np.percentile(arr, q))


@dataclass(frozen=True)
class TrackingConstraint:
    """AQA's tracking constraint: error ≤ ``max_error`` for ≥ ``probability``."""

    max_error: float = 0.30
    probability: float = 0.90

    def __post_init__(self) -> None:
        if self.max_error <= 0:
            raise ValueError(f"max_error must be positive, got {self.max_error}")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError(f"probability must be in (0, 1], got {self.probability}")

    def satisfied(self, errors: Sequence[float]) -> bool:
        return fraction_within(errors, self.max_error) >= self.probability

    def observed_percentile(self, errors: Sequence[float]) -> float:
        """Error at the constraint's probability (the §6.3 headline number)."""
        return error_percentile(errors, 100.0 * self.probability)
