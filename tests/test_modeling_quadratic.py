"""Tests for the quadratic power-performance model (paper §4.2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.modeling.quadratic import QuadraticPowerModel
from repro.util.maths import clamp


class TestFromAnchors:
    def test_anchors_hit(self, simple_model):
        assert simple_model.time_at(280.0) == pytest.approx(2.0)
        assert simple_model.time_at(140.0) == pytest.approx(3.0)

    def test_monotone_decreasing(self, simple_model):
        assert simple_model.is_monotone_decreasing()

    def test_sensitivity(self, simple_model):
        assert simple_model.sensitivity == pytest.approx(1.5)

    def test_flat_curve_when_sensitivity_one(self):
        m = QuadraticPowerModel.from_anchors(2.0, 1.0, 140.0, 280.0)
        assert m.time_at(140.0) == pytest.approx(m.time_at(280.0))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            QuadraticPowerModel.from_anchors(-1.0, 1.5, 140.0, 280.0)

    def test_sub_unity_sensitivity_rejected(self):
        with pytest.raises(ValueError, match="≥ 1"):
            QuadraticPowerModel.from_anchors(2.0, 0.9, 140.0, 280.0)

    def test_degenerate_range_rejected(self):
        with pytest.raises(ValueError):
            QuadraticPowerModel.from_anchors(2.0, 1.5, 280.0, 140.0)

    @given(
        t=st.floats(0.01, 100.0),
        s=st.floats(1.0, 3.0),
        frac=st.floats(0.0, 0.9),
    )
    @settings(max_examples=60)
    def test_property_monotone_and_anchored(self, t, s, frac):
        m = QuadraticPowerModel.from_anchors(
            t, s, 140.0, 280.0, end_slope_fraction=frac
        )
        assert m.is_monotone_decreasing()
        assert m.time_at(280.0) == pytest.approx(t, rel=1e-9)
        assert m.time_at(140.0) == pytest.approx(s * t, rel=1e-9)


class TestEvaluation:
    def test_clamps_below_range(self, simple_model):
        assert simple_model.time_at(100.0) == simple_model.time_at(140.0)

    def test_clamps_above_range(self, simple_model):
        assert simple_model.time_at(400.0) == simple_model.time_at(280.0)

    def test_vectorized(self, simple_model):
        ps = np.array([140.0, 210.0, 280.0])
        ts = simple_model.time_per_epoch(ps)
        assert ts.shape == (3,)
        assert ts[0] > ts[1] > ts[2]

    def test_slowdown_at_max_is_zero(self, simple_model):
        assert simple_model.slowdown_at(280.0) == pytest.approx(0.0)

    def test_slowdown_at_min(self, simple_model):
        assert simple_model.slowdown_at(140.0) == pytest.approx(0.5)

    def test_t_min_t_max(self, simple_model):
        assert simple_model.t_min == pytest.approx(2.0)
        assert simple_model.t_max == pytest.approx(3.0)


class TestInverse:
    @given(st.floats(140.0, 280.0))
    @settings(max_examples=60)
    def test_roundtrip(self, p):
        m = QuadraticPowerModel.from_anchors(2.0, 1.5, 140.0, 280.0)
        t = m.time_at(p)
        p_back = m.power_for_time(t)
        assert m.time_at(p_back) == pytest.approx(t, rel=1e-6)

    def test_too_fast_target_gives_max_power(self, simple_model):
        assert simple_model.power_for_time(0.1) == 280.0

    def test_too_slow_target_gives_min_power(self, simple_model):
        assert simple_model.power_for_time(100.0) == 140.0

    def test_power_for_slowdown_one_is_max(self, simple_model):
        assert simple_model.power_for_slowdown(1.0) == 280.0

    def test_power_for_slowdown_rejects_below_one(self, simple_model):
        with pytest.raises(ValueError, match="≥ 1"):
            simple_model.power_for_slowdown(0.5)

    def test_linear_model_inverse(self):
        m = QuadraticPowerModel(a=0.0, b=-0.01, c=5.0, p_min=140.0, p_max=280.0)
        t = m.time_at(200.0)
        assert m.power_for_time(t) == pytest.approx(200.0)

    def test_constant_model_inverse(self):
        m = QuadraticPowerModel(a=0.0, b=0.0, c=2.0, p_min=140.0, p_max=280.0)
        # Any cap achieves the constant time; inverse reports max power.
        assert m.power_for_time(2.0) == 280.0

    @given(st.floats(1.0, 2.0))
    @settings(max_examples=40)
    def test_slowdown_roundtrip(self, s):
        m = QuadraticPowerModel.from_anchors(2.0, 2.0, 140.0, 280.0)
        p = m.power_for_slowdown(s)
        if 140.0 < p < 280.0:
            assert m.time_at(p) / m.t_min == pytest.approx(s, rel=1e-6)


class TestFit:
    def test_exact_quadratic_recovered(self):
        truth = QuadraticPowerModel.from_anchors(2.0, 1.6, 140.0, 280.0)
        ps = np.linspace(140.0, 280.0, 20)
        ts = truth.time_per_epoch(ps)
        fit = QuadraticPowerModel.fit(ps, ts, 140.0, 280.0)
        assert fit.r2 == pytest.approx(1.0, abs=1e-12)
        assert fit.model.a == pytest.approx(truth.a, rel=1e-6)
        assert fit.model.b == pytest.approx(truth.b, rel=1e-6)
        assert fit.model.c == pytest.approx(truth.c, rel=1e-6)

    def test_noisy_fit_r2_below_one(self, rng):
        truth = QuadraticPowerModel.from_anchors(2.0, 1.6, 140.0, 280.0)
        ps = np.repeat(np.linspace(140.0, 280.0, 8), 5)
        ts = truth.time_per_epoch(ps) * (1.0 + rng.normal(0, 0.05, ps.size))
        fit = QuadraticPowerModel.fit(ps, ts, 140.0, 280.0)
        assert 0.5 < fit.r2 < 1.0

    def test_two_distinct_caps_degrade_to_linear(self):
        ps = np.array([140.0, 140.0, 280.0, 280.0])
        ts = np.array([3.0, 3.0, 2.0, 2.0])
        fit = QuadraticPowerModel.fit(ps, ts, 140.0, 280.0)
        assert fit.model.a == 0.0
        assert fit.model.time_at(140.0) == pytest.approx(3.0)

    def test_single_cap_degrades_to_constant(self):
        ps = np.array([200.0, 200.0])
        ts = np.array([2.0, 2.2])
        fit = QuadraticPowerModel.fit(ps, ts, 140.0, 280.0)
        assert fit.model.a == 0.0
        assert fit.model.b == 0.0
        assert fit.model.c == pytest.approx(2.1)

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError, match="zero samples"):
            QuadraticPowerModel.fit(np.array([]), np.array([]), 140.0, 280.0)

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError, match="matching"):
            QuadraticPowerModel.fit(np.array([1.0]), np.array([1.0, 2.0]), 140.0, 280.0)


class TestTransforms:
    def test_scaled(self, simple_model):
        doubled = simple_model.scaled(2.0)
        assert doubled.time_at(200.0) == pytest.approx(2.0 * simple_model.time_at(200.0))
        assert doubled.sensitivity == pytest.approx(simple_model.sensitivity)

    def test_scaled_rejects_non_positive(self, simple_model):
        with pytest.raises(ValueError, match="positive"):
            simple_model.scaled(0.0)

    def test_with_range(self, simple_model):
        narrowed = simple_model.with_range(160.0, 240.0)
        assert narrowed.p_min == 160.0
        assert narrowed.time_at(200.0) == simple_model.time_at(200.0)


# ------------------------------------------- the inverse, branch by branch


def parent_power_for_time(self, t_target):
    """``power_for_time`` as it stood before its constants were memoised,
    kept verbatim: property reads, ``clamp`` calls and the dead last test."""
    if t_target <= self.t_min:
        return self.p_max
    if t_target >= self.t_max:
        return self.p_min
    a, b, p_min, p_max = self.a, self.b, self.p_min, self.p_max
    if abs(a) < 1e-18:
        if abs(b) < 1e-18:
            return p_max  # constant model: any cap achieves it
        p = (t_target - self.c) / b
        return clamp(p, p_min, p_max)
    # Solve a·P² + b·P + (c − t) = 0; take the root inside the cap range.
    disc = b * b - 4.0 * a * (self.c - t_target)
    if disc < 0:
        # Shouldn't happen for monotone models within [t_min, t_max];
        # fall back to the vertex.
        return clamp(-b / (2.0 * a), p_min, p_max)
    sqrt_disc = math.sqrt(disc)
    r1 = (-b - sqrt_disc) / (2.0 * a)
    r2 = (-b + sqrt_disc) / (2.0 * a)
    in1 = p_min - 1e-9 <= r1 <= p_max + 1e-9
    in2 = p_min - 1e-9 <= r2 <= p_max + 1e-9
    if in1 and in2:
        # Both roots valid: keep the one whose predicted time is closer
        # to the target (ties resolve to r1, matching min() semantics).
        if abs(self.time_at(r1) - t_target) <= abs(self.time_at(r2) - t_target):
            return clamp(r1, p_min, p_max)
        return clamp(r2, p_min, p_max)
    if in1:
        return clamp(r1, p_min, p_max)
    if in2:
        return clamp(r2, p_min, p_max)
    # Both roots outside: choose the nearer bound.
    return p_min if t_target > self.t_max else p_max


def branch_taken(m, t):
    """Which return of the inverse ``(m, t)`` reaches, so that every case
    below provably exercises the branch it is named after."""
    if t <= m.t_min:
        return "at or beyond t_min"
    if t >= m.t_max:
        return "at or beyond t_max"
    if abs(m.a) < 1e-18:
        return "constant" if abs(m.b) < 1e-18 else "linear"
    disc = m.b * m.b - 4.0 * m.a * (m.c - t)
    if disc < 0:
        return "negative discriminant"
    roots = [(-m.b + sign * math.sqrt(disc)) / (2.0 * m.a) for sign in (-1.0, 1.0)]
    inside = [m.p_min - 1e-9 <= r <= m.p_max + 1e-9 for r in roots]
    if all(inside):
        miss = [abs(m.time_at(r) - t) for r in roots]
        return "both roots, first wins" if miss[0] <= miss[1] else "both roots, second wins"
    if any(inside):
        return "first root only" if inside[0] else "second root only"
    return "no root in range"


# Between T(p_max) and T(p_min) the real parabola always has exactly one
# root in range, so the other branches are reached only through rounding (a
# vertex on a range end, a target one ulp inside) or overflow: found by
# search, pinned here with their full digits.
INVERSE_CASES = [
    ("constant", (0.0, -1e-19, 0.0), -2e-17),
    ("at or beyond t_min", (0.0, 0.0, 1.5), 1.5),  # a = b = 0 proper: T(p_max) = T(p_min)
    ("linear", (0.0, -0.01, 5.0), 3.0),
    ("first root only", (1.8915398677193524e-05, -0.010592623259228374, 4.212425148205707), 3.100199705986727),
    ("first root only", (2.5e-5, -0.02, 6.0), 2.9),
    ("first root only", (-1e-5, 0.002, 3.0), 2.8),  # concave: still the first
    ("negative discriminant", (0.0002949030704615941, -0.16514571999439936, 24.22945777252238), 1.1090568982795337),
    ("both roots, first wins", (0.00037625375258409726, -0.21070210116078322, 31.080515340038005), 1.5822212176119275),
    ("both roots, second wins", (-0.00016379814683090813, 0.05632997797685872, -4.123058865843213), 0.5526943730312092),
    ("no root in range", (0.0003677327774846395, -0.20593035560136533, 33.355126102912735), 4.524876289326181),
    ("no root in range", (1e200, -5e202, 6.25e204), 5e203),  # b·b overflows: no finite root
]


class TestInverseBranches:
    """The memoised, inline-clamped inverse against the parent's body, ``==``."""

    @pytest.mark.parametrize("label, coeffs, t", INVERSE_CASES)
    def test_each_branch_returns_the_parents_float(self, label, coeffs, t):
        m = QuadraticPowerModel(*coeffs, 140.0, 280.0)
        assert branch_taken(m, t) == label
        assert m.power_for_time(t) == parent_power_for_time(m, t)
        assert m.power_for_time(t) == parent_power_for_time(m, t)  # memo in place

    def test_targets_at_and_beyond_the_end_times(self, simple_model):
        m = simple_model
        for t, cap in [
            (m.t_min, m.p_max), (math.nextafter(m.t_min, 0.0), m.p_max), (0.0, m.p_max),
            (m.t_max, m.p_min), (math.nextafter(m.t_max, math.inf), m.p_min), (1e9, m.p_min),
        ]:
            assert m.power_for_time(t) == parent_power_for_time(m, t) == cap
        inside = math.nextafter(m.t_min, math.inf)
        assert m.p_min < m.power_for_time(inside) == parent_power_for_time(m, inside) <= m.p_max

    def test_no_root_in_range_gets_the_full_cap(self):
        m = QuadraticPowerModel(1e200, -5e202, 6.25e204, 140.0, 280.0)
        assert branch_taken(m, 5e203) == "no root in range"
        assert m.power_for_time(5e203) == m.p_max

    @given(
        a=st.one_of(st.just(0.0), st.floats(-1e-3, 1e-3)),
        vertex=st.floats(0.0, 420.0),
        slope=st.floats(-0.05, 0.05),
        level=st.floats(0.1, 20.0),
        where=st.floats(-0.25, 1.25),
        on_end=st.sampled_from([None, "t_min", "t_max"]),
    )
    @settings(max_examples=500, deadline=None)
    def test_sweep_equals_the_parent(self, a, vertex, slope, level, where, on_end):
        # Fitted-looking curves: convex, concave, a vertex inside the range
        # (non-monotone) or outside it, and straight lines of either slope.
        b = slope if a == 0.0 else -2.0 * a * vertex
        m = QuadraticPowerModel(a, b, level - a * 210.0 * 210.0 - b * 210.0, 140.0, 280.0)
        t = m.t_min + where * (m.t_max - m.t_min) if on_end is None else getattr(m, on_end)
        assert m.power_for_time(t) == parent_power_for_time(m, t)
