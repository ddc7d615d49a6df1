"""Tests for the target forecasters behind the predictive planner."""

import numpy as np
import pytest

from repro.aqa.regulation import BoundedRandomWalkSignal, SinusoidSignal
from repro.core.framework import AnorConfig
from repro.core.targets import (
    ConstantTarget,
    RegulationTarget,
    SteppedTarget,
)
from repro.plan.forecast import (
    RAMP_FIT_POINTS,
    AR1Forecaster,
    ForecastErrorWindow,
    InvertedRampForecaster,
    PersistenceForecaster,
    RampForecaster,
    ScheduleForecaster,
    make_forecaster,
)


class TestErrorWindow:
    def test_mae_and_bias(self):
        w = ForecastErrorWindow(4)
        for e in (10.0, -10.0, 20.0):
            w.push(e)
        assert w.count == 3
        assert w.mae == pytest.approx(40.0 / 3)
        assert w.bias == pytest.approx(20.0 / 3)

    def test_window_slides(self):
        w = ForecastErrorWindow(2)
        for e in (100.0, 1.0, 2.0):
            w.push(e)
        assert w.count == 2
        assert w.mae == pytest.approx(1.5)

    def test_empty_is_zero(self):
        w = ForecastErrorWindow(4)
        assert w.mae == 0.0
        assert w.bias == 0.0

    def test_reset(self):
        w = ForecastErrorWindow(4)
        w.push(5.0)
        w.reset()
        assert w.count == 0

    def test_window_size_validated(self):
        with pytest.raises(ValueError, match="≥ 1"):
            ForecastErrorWindow(0)


class TestPersistence:
    def test_predicts_last_observation(self):
        f = PersistenceForecaster()
        f.observe(0.0, 3000.0)
        f.observe(4.0, 3100.0)
        assert f.predict(4.0, 20.0) == 3100.0

    def test_requires_observation(self):
        with pytest.raises(ValueError, match="no observations"):
            PersistenceForecaster().predict(0.0, 4.0)

    def test_forecast_emits_points(self):
        f = PersistenceForecaster()
        f.observe(0.0, 2000.0)
        pts = f.forecast(0.0, [4.0, 8.0])
        assert [p.time for p in pts] == [4.0, 8.0]
        assert all(p.value == 2000.0 for p in pts)


class TestRamp:
    def test_recovers_exact_slope(self):
        f = RampForecaster()
        for k in range(RAMP_FIT_POINTS):
            f.observe(4.0 * k, 1000.0 + 50.0 * k)  # 12.5 W/s ramp
        assert f.slope() == pytest.approx(12.5)
        last = 4.0 * (RAMP_FIT_POINTS - 1)
        assert f.predict(last, last + 8.0) == pytest.approx(
            1000.0 + 12.5 * last + 12.5 * 8.0)

    def test_single_sample_falls_back_to_persistence(self):
        f = RampForecaster()
        f.observe(0.0, 2000.0)
        assert f.predict(0.0, 100.0) == 2000.0

    def test_inverted_ramp_negates_slope(self):
        f = InvertedRampForecaster()
        for k in range(RAMP_FIT_POINTS):
            f.observe(4.0 * k, 1000.0 + 50.0 * k)
        assert f.slope() == pytest.approx(-12.5)

    def test_fit_points_validated(self):
        assert RAMP_FIT_POINTS >= 2  # the range its constructor check enforced


class TestAR1:
    def test_reverts_to_mean(self):
        f = AR1Forecaster(mean_power=3000.0, rho=0.5, step=4.0)
        f.observe(0.0, 3400.0)
        assert f.predict(0.0, 4.0) == pytest.approx(3200.0)
        assert f.predict(0.0, 8.0) == pytest.approx(3100.0)
        # far lookahead converges to the mean
        assert f.predict(0.0, 4000.0) == pytest.approx(3000.0, abs=1e-6)

    def test_fit_recovers_signal_statistics(self):
        signal = BoundedRandomWalkSignal(3600.0, step=4.0, rho=0.9, seed=5)
        target = RegulationTarget(3400.0, 1050.0, signal, update_period=4.0)
        f = AR1Forecaster.fit_regulation(target, fit_duration=3600.0)
        assert 0.8 <= f.rho <= 0.999
        assert abs(f.mean_power - 3400.0) < 300.0
        assert f.step == 4.0

    def test_fit_duration_validated(self):
        signal = SinusoidSignal(period=600.0)
        target = RegulationTarget(3400.0, 1050.0, signal, update_period=4.0)
        with pytest.raises(ValueError, match="fit_duration"):
            AR1Forecaster.fit_regulation(target, fit_duration=4.0)

    def test_rho_range_validated(self):
        with pytest.raises(ValueError, match="rho"):
            AR1Forecaster(mean_power=3000.0, rho=1.0)


class TestSchedule:
    def test_exact_prediction(self):
        stepped = SteppedTarget([0.0, 10.0, 20.0], [1000.0, 2000.0, 3000.0])
        f = ScheduleForecaster(stepped)
        f.observe(5.0, 1000.0)
        assert f.predict(5.0, 15.0) == 2000.0

    def test_breakpoints_from_window(self):
        stepped = SteppedTarget([0.0, 10.0, 20.0, 30.0], [1.0, 2.0, 3.0, 4.0])
        f = ScheduleForecaster(stepped)
        assert f.breakpoints(5.0, 20.0) == (10.0, 20.0)

    def test_requires_window_capable_source(self):
        with pytest.raises(ValueError, match="window"):
            ScheduleForecaster(ConstantTarget(840.0))


class TestMakeForecaster:
    def test_auto_picks_schedule_for_stepped(self):
        f = make_forecaster("auto", SteppedTarget([0.0], [1000.0]))
        assert isinstance(f, ScheduleForecaster)

    def test_auto_picks_ar1_for_regulation(self):
        signal = BoundedRandomWalkSignal(600.0, step=4.0, seed=1)
        target = RegulationTarget(3400.0, 1050.0, signal, update_period=4.0)
        assert isinstance(make_forecaster("auto", target), AR1Forecaster)

    def test_auto_falls_back_to_persistence(self):
        assert isinstance(
            make_forecaster("auto", ConstantTarget(840.0)), PersistenceForecaster
        )

    def test_adversarial_kind(self):
        f = make_forecaster("adversarial", ConstantTarget(840.0))
        assert isinstance(f, InvertedRampForecaster)

    def test_ar1_needs_regulation_target(self):
        with pytest.raises(ValueError, match="RegulationTarget"):
            make_forecaster("ar1", ConstantTarget(840.0))

    def test_unknown_kind_rejected(self):
        for kind in ("oracle", "ramp"):
            with pytest.raises(ValueError, match="unknown forecaster"):
                make_forecaster(kind, ConstantTarget(840.0))
            with pytest.raises(ValueError, match="plan_forecaster"):
                AnorConfig(plan_forecaster=kind)


class TestErrorTracking:
    def test_record_error_feeds_mae(self, monkeypatch):
        monkeypatch.setattr("repro.plan.forecast.ERROR_WINDOW", 4)
        f = PersistenceForecaster()
        f.observe(0.0, 1000.0)
        f.record_error(50.0)
        f.record_error(-30.0)
        assert f.mae == pytest.approx(40.0)
        assert f.bias == pytest.approx(10.0)

    def test_series_based_fit_matches_scalar_sampling(self):
        # The vectorised series() path the fit uses must agree with scalar
        # value() reads — a mismatch would silently skew rho.
        signal = BoundedRandomWalkSignal(600.0, step=4.0, seed=3)
        times = np.arange(0.0, 600.0, 4.0)
        assert signal.series(times).tolist() == [
            signal.value(float(t)) for t in times
        ]
