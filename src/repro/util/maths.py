"""Small numeric helpers shared across budgeters, models, and simulators."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np


def clamp(value: float, lo: float, hi: float) -> float:
    """Clamp ``value`` into the closed interval [lo, hi]."""
    if lo > hi:
        raise ValueError(f"empty interval: lo={lo} > hi={hi}")
    return lo if value < lo else hi if value > hi else value


def bisect_scalar(
    func: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    tol: float = 1e-9,
    max_iter: int = 200,
) -> float:
    """Find x in [lo, hi] with func(x) ≈ 0 for a monotone ``func``.

    Its answer on the common slowdown factor is the even-slowdown
    budgeter's, which replays these halvings from a located bracket instead
    of evaluating each one.  If ``func`` has the same sign at both ends, the
    endpoint whose value is closest to zero is returned — for budgeting this
    corresponds to saturating every job at its minimum or maximum cap, which
    is exactly the clipping behaviour the paper describes at extreme budgets
    (§6.1.1).

    Raises :class:`RuntimeError` after ``max_iter`` halvings without meeting
    ``tol``.  Reaching the cap means the objective cannot be bisected to the
    requested tolerance (e.g. a discontinuous step with ``tol=0``), and a
    silently returned midpoint would feed an unconverged cap into the
    budgeter.
    """
    if hi < lo:
        raise ValueError(f"empty bracket: [{lo}, {hi}]")
    f_lo, f_hi = func(lo), func(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if np.sign(f_lo) == np.sign(f_hi):
        return lo if abs(f_lo) <= abs(f_hi) else hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        f_mid = func(mid)
        if f_mid == 0.0 or (hi - lo) < tol:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    raise RuntimeError(
        f"bisect_scalar did not converge within max_iter={max_iter}: "
        f"bracket [{lo}, {hi}] still wider than tol={tol}"
    )


def monotone_decreasing(values: Sequence[float], *, strict: bool = False) -> bool:
    """True when ``values`` never increase (or strictly decrease)."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return True
    diffs = np.diff(arr)
    return bool(np.all(diffs < 0) if strict else np.all(diffs <= 0))


def weighted_percentile(
    values: Sequence[float],
    weights: Sequence[float],
    q: float,
) -> float:
    """Weighted percentile (q in [0, 100]) using the cumulative-weight rule.

    Each value contributes mass proportional to its weight; the result is the
    smallest value whose cumulative weight fraction reaches q/100.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"q must be in [0, 100], got {q}")
    v = np.asarray(values, dtype=float)
    w = np.asarray(weights, dtype=float)
    if v.shape != w.shape:
        raise ValueError(f"shape mismatch: {v.shape} vs {w.shape}")
    if v.size == 0:
        raise ValueError("cannot take percentile of empty data")
    if np.any(w < 0):
        raise ValueError("weights must be non-negative")
    total = w.sum()
    if total == 0:
        raise ValueError("weights sum to zero")
    order = np.argsort(v, kind="stable")
    v, w = v[order], w[order]
    cum = np.cumsum(w) / total
    idx = int(np.searchsorted(cum, q / 100.0, side="left"))
    return float(v[min(idx, v.size - 1)])
