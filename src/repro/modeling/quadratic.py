"""Quadratic power-performance model: ``T = A·P² + B·P + C`` (paper §4.2).

``T`` is seconds per epoch and ``P`` is the per-node CPU power cap in watts.
The model is valid on a cap interval [p_min, p_max]; evaluation clamps into
that range, matching the platform's enforceable cap window (70 W per package
floor, TDP ceiling — §6.1.1).

The inverse map :meth:`QuadraticPowerModel.power_for_time` is what the
performance-aware (even-slowdown) budgeter uses: given a target time per
epoch it returns the smallest power cap achieving it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["QuadraticPowerModel", "FitResult"]


@lru_cache(maxsize=64)
def _clipped_grid(p_min: float, p_max: float, samples: int) -> np.ndarray:
    """``np.clip(np.linspace(p_min, p_max, samples), p_min, p_max)``, read-only
    and shared: every model over one cap range is checked on the same grid."""
    grid = np.clip(np.linspace(p_min, p_max, samples), p_min, p_max)
    grid.setflags(write=False)
    return grid


@dataclass(frozen=True)
class FitResult:
    """Outcome of a least-squares fit: the model plus goodness-of-fit."""

    model: "QuadraticPowerModel"
    r2: float
    n_samples: int


@dataclass(frozen=True)
class QuadraticPowerModel:
    """Seconds-per-epoch as a quadratic function of the power cap.

    Attributes
    ----------
    a, b, c:
        Quadratic coefficients of ``T(P) = a·P² + b·P + c``.
    p_min, p_max:
        Enforceable cap range in watts; evaluation clamps P into it.
    """

    a: float
    b: float
    c: float
    p_min: float
    p_max: float

    def __post_init__(self) -> None:
        if not (self.p_min < self.p_max):
            raise ValueError(f"need p_min < p_max, got [{self.p_min}, {self.p_max}]")

    # ------------------------------------------------------------------ eval

    def time_per_epoch(self, p_cap: float | np.ndarray) -> float | np.ndarray:
        """Predicted seconds per epoch at cap ``p_cap`` (clamped into range)."""
        if isinstance(p_cap, (int, float)):
            # Scalar fast path: this sits inside the budgeters' bisection
            # loop, where np.clip's array machinery costs ~10x the algebra.
            p = self.p_min if p_cap < self.p_min else (
                self.p_max if p_cap > self.p_max else p_cap
            )
            return float(self.a * p * p + self.b * p + self.c)
        p = np.clip(p_cap, self.p_min, self.p_max)
        result = self.a * p * p + self.b * p + self.c
        if np.isscalar(p_cap):
            return float(result)
        return result

    def time_at(self, p_cap: float) -> float:
        """Scalar alias of :meth:`time_per_epoch`."""
        return self.time_per_epoch(float(p_cap))

    @property
    def t_min(self) -> float:
        """Fastest achievable time per epoch (at the maximum cap)."""
        # The dataclass is frozen, so derived quantities can be memoized
        # safely; object.__setattr__ bypasses the frozen guard.
        t = self.__dict__.get("_t_min")
        if t is None:
            t = self.time_at(self.p_max)
            object.__setattr__(self, "_t_min", t)
        return t

    @property
    def t_max(self) -> float:
        """Slowest time per epoch within the cap range (at the minimum cap)."""
        t = self.__dict__.get("_t_max")
        if t is None:
            t = self.time_at(self.p_min)
            object.__setattr__(self, "_t_max", t)
        return t

    def slowdown_at(self, p_cap: float) -> float:
        """Fractional slowdown vs. the uncapped (max-cap) time; ≥ 0."""
        return self.time_at(p_cap) / self.t_min - 1.0

    @property
    def sensitivity(self) -> float:
        """Relative time at the minimum cap, ``T(p_min)/T(p_max)`` (≥ 1)."""
        return self.t_max / self.t_min

    # --------------------------------------------------------------- inverse

    def power_for_time(self, t_target: float) -> float:
        """Smallest cap whose predicted time ≤ ``t_target`` (clamped to range).

        This is the ``P_j(·)`` function of §4.4.3.  Targets faster than the
        model's fastest time return ``p_max``; targets slower than its
        slowest return ``p_min`` (the cap cannot slow the job further).  A
        model with no root inside the cap range gets ``p_max``, the full cap
        (between its end times a parabola always has one, so this takes
        rounding at a vertex on a range end, or overflow).  That is the safe
        side: a curve that cannot say where the target lies must not be the
        reason a job is slowed, and a budgeter summing the caps counts the
        full cap against the budget, so the watts come from jobs whose
        models do resolve.
        """
        # Sits inside the budgeters' bisection: the seven constants come
        # from one tuple memoised on the frozen instance, the clamps are
        # inline (``p_min < p_max`` holds by construction).
        try:
            t_min, t_max, a, b, c, p_min, p_max = self._inverse_constants
        except AttributeError:
            t_min, t_max, a, b, c, p_min, p_max = self._memoise_inverse_constants()
        if t_target <= t_min:
            return p_max
        if t_target >= t_max:
            return p_min
        if abs(a) < 1e-18:
            if abs(b) < 1e-18:
                return p_max  # constant model: any cap achieves it
            p = (t_target - c) / b
            return p_min if p < p_min else p_max if p > p_max else p
        # Solve a·P² + b·P + (c − t) = 0; take the root inside the cap range.
        disc = b * b - 4.0 * a * (c - t_target)
        if disc < 0:
            # Shouldn't happen for monotone models within [t_min, t_max];
            # fall back to the vertex.
            p = -b / (2.0 * a)
            return p_min if p < p_min else p_max if p > p_max else p
        sqrt_disc = math.sqrt(disc)
        r1 = (-b - sqrt_disc) / (2.0 * a)
        r2 = (-b + sqrt_disc) / (2.0 * a)
        in1 = p_min - 1e-9 <= r1 <= p_max + 1e-9
        in2 = p_min - 1e-9 <= r2 <= p_max + 1e-9
        if in1 and in2:
            # Both roots valid: keep the one whose predicted time is closer
            # to the target (ties resolve to r1, matching min() semantics).
            near1 = abs(self.time_at(r1) - t_target) <= abs(self.time_at(r2) - t_target)
            p = r1 if near1 else r2
        elif in1:
            p = r1
        elif in2:
            p = r2
        else:
            return p_max  # no root in range: see the docstring
        return p_min if p < p_min else p_max if p > p_max else p

    def _memoise_inverse_constants(self) -> tuple:
        constants = (self.t_min, self.t_max, self.a, self.b, self.c, self.p_min, self.p_max)
        object.__setattr__(self, "_inverse_constants", constants)
        return constants

    def power_for_slowdown(self, s: float) -> float:
        """Cap achieving slowdown factor ``s`` (s=1 → no slowdown)."""
        if s < 1.0:
            raise ValueError(f"slowdown factor must be ≥ 1, got {s}")
        return self.power_for_time(s * self.t_min)

    @property
    def inverse_is_monotone(self) -> bool:
        """True when ``power_for_time`` is provably non-increasing in its
        target *as floats*, so a sum of its clamped outputs can be searched
        without evaluating every bisection step (DESIGN §7, *The
        even-slowdown solve*).

        Targets at or below ``t_min`` give ``p_max`` and at or above
        ``t_max`` give ``p_min``, so only the branch between them matters:
        * ``t_min ≥ t_max`` (a flat fit's rounding, an increasing curve):
          that branch is never reached;
        * constant: ``p_max`` throughout;
        * linear with ``b < 0``: ``(t − c)/b`` is a correctly rounded, hence
          monotone, chain, then clamped;
        * quadratic with its vertex more than 1 W outside the cap range
          (so decreasing on it, as ``t_min < t_max``): ``r2`` is on the far
          side of the rounded vertex, so never in range, and ``r1`` and the
          discriminant are monotone in the target whatever the sign of
          ``a``.  So the branch is ``clamp(r1)`` — or, for ``a > 0``, the
          vertex fallback ``p_max`` at its low end — provided that at the
          largest target below ``t_max`` the discriminant is ``≥ 0`` and
          ``r1`` is not below the range, which is checked here with the
          inverse's own arithmetic (``−b − √disc`` cancels when the vertex
          is far away).
        Anything else, non-finite coefficients included, is not certified.
        """
        ok = self.__dict__.get("_inverse_monotone")
        if ok is None:
            try:
                t_min, t_max, a, b, c, p_min, p_max = self._inverse_constants
            except AttributeError:
                t_min, t_max, a, b, c, p_min, p_max = self._memoise_inverse_constants()
            if not all(map(math.isfinite, (t_min, t_max, a, b, c))):
                ok = False
            elif t_min >= t_max:
                ok = True
            elif abs(a) < 1e-18:
                ok = abs(b) < 1e-18 or b < 0
            else:
                vertex = -b / (2.0 * a)
                top = math.nextafter(t_max, -math.inf)
                disc = b * b - 4.0 * a * (c - top)
                ok = (
                    (vertex < p_min - 1.0 or vertex > p_max + 1.0)
                    and (top <= t_min or (
                        disc >= 0 and (-b - math.sqrt(disc)) / (2.0 * a) >= p_min - 1e-9))
                )
            object.__setattr__(self, "_inverse_monotone", ok)
        return ok

    def solve_constants(self, p_min: float, p_max: float) -> tuple:
        """``(T(p_max), T(p_min)/T(p_max), certified, 2a, b, lo, hi)`` for a
        budget request over ``[p_min, p_max]``, memoised per range on the
        frozen instance.

        ``certified``: the inverse is monotone (``inverse_is_monotone``) and
        ``T(p_max)`` is finite and positive, so the request's cap at
        slowdown ``s``, ``clamp(P(s·T(p_max)))``, never rises with ``s``.
        ``1/(2a·p + b)`` is ``dP/dt`` at an unclamped cap ``p``, one strictly
        inside ``(lo, hi)`` (the intersection of the two ranges; empty for a
        constant model, whose cap does not move with the target).  The
        ratio is ``None`` when ``T(p_max) ≤ 0``.
        """
        memo = self.__dict__.get("_solve_constants")
        if memo is None:
            memo = {}
            object.__setattr__(self, "_solve_constants", memo)
        constants = memo.get((p_min, p_max))
        if constants is None:
            t_fast = self.time_per_epoch(p_max)
            ratio = self.time_per_epoch(p_min) / t_fast if t_fast > 0 else None
            certified = self.inverse_is_monotone and math.isfinite(t_fast) and t_fast > 0
            linear = abs(self.a) < 1e-18
            lo, hi = max(p_min, self.p_min), min(p_max, self.p_max)
            if linear and abs(self.b) < 1e-18:
                lo = hi
            constants = (t_fast, ratio, certified, 0.0 if linear else 2.0 * self.a,
                         self.b, lo, hi)
            memo[(p_min, p_max)] = constants
        return constants

    def is_monotone_decreasing(self, samples: int = 64) -> bool:
        """Check T(P) decreases over the cap range (sanity for fitted models)."""
        key = f"_monotone_{samples}"
        cached = self.__dict__.get(key)
        if cached is None:
            p = _clipped_grid(self.p_min, self.p_max, samples)
            ts = self.a * p * p + self.b * p + self.c
            cached = bool((ts[1:] - ts[:-1] <= 1e-12).all())
            object.__setattr__(self, key, cached)
        return cached

    # ------------------------------------------------------------ construct

    @classmethod
    def fit(
        cls,
        p_caps: np.ndarray,
        times: np.ndarray,
        p_min: float,
        p_max: float,
    ) -> FitResult:
        """Least-squares fit of the quadratic to (cap, time/epoch) samples.

        With fewer than 3 distinct cap values the quadratic is rank-deficient;
        we degrade gracefully to a linear (2 caps) or constant (1 cap) model
        by zeroing the missing coefficients.
        """
        p = np.asarray(p_caps, dtype=float)
        t = np.asarray(times, dtype=float)
        if p.shape != t.shape or p.ndim != 1:
            raise ValueError(f"need matching 1-D arrays, got {p.shape} and {t.shape}")
        if p.size == 0:
            raise ValueError("cannot fit a model to zero samples")
        distinct = np.unique(np.round(p, 6)).size
        degree = min(2, distinct - 1)
        coeffs = np.polyfit(p, t, deg=degree) if degree > 0 else np.array([t.mean()])
        padded = np.zeros(3)
        padded[3 - coeffs.size:] = coeffs
        model = cls(a=float(padded[0]), b=float(padded[1]), c=float(padded[2]),
                    p_min=p_min, p_max=p_max)
        pred = model.a * p * p + model.b * p + model.c
        ss_res = float(np.sum((t - pred) ** 2))
        ss_tot = float(np.sum((t - t.mean()) ** 2))
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        return FitResult(model=model, r2=r2, n_samples=int(p.size))

    @classmethod
    def from_anchors(
        cls,
        t_at_max: float,
        sensitivity: float,
        p_min: float,
        p_max: float,
        *,
        end_slope_fraction: float = 0.1,
    ) -> "QuadraticPowerModel":
        """Build a monotone quadratic from two anchor points.

        Constraints: ``T(p_max) = t_at_max``, ``T(p_min) = sensitivity·t_at_max``,
        and a small negative slope at ``p_max`` equal to ``end_slope_fraction``
        of the mean slope — making the curve flatten near TDP, as measured
        power-performance curves do (paper Fig. 3).
        """
        if t_at_max <= 0:
            raise ValueError(f"t_at_max must be positive, got {t_at_max}")
        if sensitivity < 1.0:
            raise ValueError(f"sensitivity must be ≥ 1, got {sensitivity}")
        if not 0.0 <= end_slope_fraction < 1.0:
            raise ValueError(f"end_slope_fraction must be in [0, 1), got {end_slope_fraction}")
        span = p_max - p_min
        if span <= 0:
            raise ValueError(f"need p_min < p_max, got [{p_min}, {p_max}]")
        rise = (sensitivity - 1.0) * t_at_max
        mean_slope = rise / span  # magnitude of the average downward slope
        delta = end_slope_fraction * mean_slope  # |T'(p_max)|
        # Solve the 3 linear constraints for a, b, c.
        a = (rise - delta * span) / (span * span)
        b = -delta - 2.0 * a * p_max
        c = t_at_max - a * p_max * p_max - b * p_max
        return cls(a=a, b=b, c=c, p_min=p_min, p_max=p_max)

    def with_range(self, p_min: float, p_max: float) -> "QuadraticPowerModel":
        """Same curve restricted/extended to a different cap range."""
        return QuadraticPowerModel(self.a, self.b, self.c, p_min, p_max)

    def scaled(self, factor: float) -> "QuadraticPowerModel":
        """Model with all times multiplied by ``factor`` (same cap range)."""
        if factor <= 0:
            raise ValueError(f"factor must be positive, got {factor}")
        return QuadraticPowerModel(self.a * factor, self.b * factor,
                                   self.c * factor, self.p_min, self.p_max)
