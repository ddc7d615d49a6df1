"""Tests for regulation-signal generators (paper §5.6)."""

import numpy as np
import pytest

from repro.aqa.regulation import (
    BoundedRandomWalkSignal,
    RegulationSignal,
    SinusoidSignal,
    TabulatedSignal,
)


class TestSinusoid:
    def test_bounds(self):
        sig = SinusoidSignal(period=60.0)
        values = sig.series(np.linspace(0, 600, 500))
        assert values.min() >= -1.0
        assert values.max() <= 1.0

    def test_period(self):
        sig = SinusoidSignal(period=60.0)
        assert sig.value(0.0) == pytest.approx(sig.value(60.0), abs=1e-9)

    def test_amplitude(self):
        sig = SinusoidSignal(period=4.0, amplitude=0.5)
        assert sig.value(1.0) == pytest.approx(0.5)

    def test_invalid_amplitude(self):
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            SinusoidSignal(amplitude=1.5)

    def test_invalid_period(self):
        with pytest.raises(ValueError, match="positive"):
            SinusoidSignal(period=0.0)


class TestBoundedRandomWalk:
    def test_bounds_always(self):
        sig = BoundedRandomWalkSignal(3600.0, sigma=0.5, seed=0)
        values = sig.series(np.arange(0, 3600, 4.0))
        assert values.min() >= -1.0
        assert values.max() <= 1.0

    def test_deterministic_function_of_time(self):
        """Reading out of order must not change values (precomputed walk)."""
        sig = BoundedRandomWalkSignal(600.0, seed=3)
        late = sig.value(500.0)
        early = sig.value(10.0)
        assert sig.value(500.0) == late
        assert sig.value(10.0) == early

    def test_reproducible_across_instances(self):
        a = BoundedRandomWalkSignal(600.0, seed=7)
        b = BoundedRandomWalkSignal(600.0, seed=7)
        ts = np.arange(0, 600, 4.0)
        assert (a.series(ts) == b.series(ts)).all()

    @pytest.mark.parametrize(
        "seed, first",
        [
            (0, [0.0, 0.018859533164008995, -0.0015219823246065585, 0.09458707471162395]),
            (7, [0.0, 0.00018452300362238613, 0.0449908179397842, 0.002520415097258033]),
            (123, [0.0, -0.1483682025521776, -0.19908515419579476, 7.618962346639391e-05]),
        ],
    )
    def test_walk_pinned_to_the_scalar_draw_sequence(self, seed, first):
        """Values recorded when the walk drew one scalar normal per grid
        point; every golden trace downstream depends on them."""
        sig = BoundedRandomWalkSignal(40.0, step=4.0, seed=seed)
        assert [sig.value(4.0 * k) for k in range(4)] == first

    def test_clamps_at_both_bounds(self):
        sig = BoundedRandomWalkSignal(40.0, step=4.0, rho=1.0, sigma=0.9, seed=2)
        values = [sig.value(4.0 * k) for k in range(11)]
        assert values[3:7] == [-0.6720827427711971, -1.0, 0.6197366444488119, 1.0]

    def test_shared_generator_advances_one_draw_per_grid_point(self):
        shared, scalar = np.random.default_rng(5), np.random.default_rng(5)
        BoundedRandomWalkSignal(40.0, step=4.0, seed=shared)
        for _ in range(11):  # ceil(40 / 4) + 1 grid points
            scalar.normal(0.0, 0.15)
        assert shared.bit_generator.state == scalar.bit_generator.state

    def test_starts_at_zero(self):
        assert BoundedRandomWalkSignal(100.0, seed=0).value(0.0) == 0.0

    def test_steps_hold_within_interval(self):
        sig = BoundedRandomWalkSignal(100.0, step=4.0, seed=0)
        assert sig.value(4.0) == sig.value(7.9)

    def test_mean_reversion_keeps_mean_small(self):
        sig = BoundedRandomWalkSignal(36000.0, rho=0.9, sigma=0.2, seed=1)
        values = sig.series(np.arange(0, 36000, 4.0))
        assert abs(values.mean()) < 0.2

    def test_beyond_duration_holds_last(self):
        sig = BoundedRandomWalkSignal(100.0, seed=0)
        assert sig.value(1e6) == sig.value(100.0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="≥ 0"):
            BoundedRandomWalkSignal(100.0, seed=0).value(-1.0)

    def test_invalid_rho(self):
        with pytest.raises(ValueError, match="rho"):
            BoundedRandomWalkSignal(100.0, rho=1.5)


class TestTabulated:
    def test_zero_order_hold(self):
        sig = TabulatedSignal([0.0, 10.0], [0.2, -0.4])
        assert sig.value(5.0) == 0.2
        assert sig.value(10.0) == -0.4
        assert sig.value(99.0) == -0.4

    def test_before_first_breakpoint(self):
        sig = TabulatedSignal([10.0], [0.3])
        assert sig.value(0.0) == 0.3

    def test_out_of_range_values_rejected(self):
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            TabulatedSignal([0.0], [1.5])

    def test_non_increasing_times_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            TabulatedSignal([0.0, 0.0], [0.1, 0.2])


class TestSeries:
    def test_sinusoid_series_matches_scalar(self):
        sig = SinusoidSignal(period=120.0, amplitude=0.8, phase=0.3)
        times = [0.0, 1.5, 37.0, 119.9, 240.0]
        out = sig.series(times)
        assert out.tolist() == pytest.approx([sig.value(t) for t in times])

    def test_random_walk_series_matches_scalar(self):
        sig = BoundedRandomWalkSignal(200.0, step=4.0, seed=11)
        times = np.arange(0.0, 400.0, 1.7)
        out = sig.series(times)
        assert out.tolist() == [sig.value(float(t)) for t in times]

    def test_random_walk_series_rejects_negative_times(self):
        sig = BoundedRandomWalkSignal(100.0, seed=1)
        with pytest.raises(ValueError, match="≥ 0"):
            sig.series([-1.0, 0.0])

    def test_tabulated_series_matches_scalar(self):
        sig = TabulatedSignal([0.0, 5.0, 10.0], [0.2, -0.4, 0.9])
        times = [0.0, 2.5, 5.0, 7.0, 10.0, 50.0]
        out = sig.series(times)
        assert out.tolist() == [sig.value(t) for t in times]

    def test_tabulated_error_names_offending_index(self):
        with pytest.raises(ValueError, match=r"times\[1\]=5\.0"):
            TabulatedSignal([0.0, 5.0, 5.0], [0.1, 0.2, 0.3])

    def test_base_fallback_series(self):
        class Lambda(RegulationSignal):
            def value(self, t):
                return min(t / 100.0, 1.0)

        sig = Lambda()
        assert sig.series([0.0, 50.0, 200.0]).tolist() == [0.0, 0.5, 1.0]
