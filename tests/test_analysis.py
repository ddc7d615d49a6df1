"""Tests for tracking metrics and offline slowdown analyses."""

import numpy as np
import pytest

from repro.analysis.slowdown import (
    JobScenario,
    estimate_scenario_slowdowns,
    sweep_budgets,
)
from repro.analysis.tracking import (
    TrackingConstraint,
    error_percentile,
    fraction_within,
    tracking_error_series,
)
from repro.budget.even_power import EvenPowerBudgeter
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.modeling.quadratic import QuadraticPowerModel


def trace(targets, measured, t0=0.0):
    t = np.arange(len(targets), dtype=float) + t0
    return np.column_stack([t, targets, measured])


class TestTrackingErrorSeries:
    def test_basic(self):
        tr = trace([100.0, 100.0], [90.0, 120.0])
        err = tracking_error_series(tr, reserve=100.0)
        assert err.tolist() == [0.1, 0.2]

    def test_window(self):
        tr = trace([100.0] * 10, [100.0] * 10)
        err = tracking_error_series(tr, 10.0, t_start=3.0, t_end=7.0)
        assert err.size == 5

    def test_smoothing_reduces_churn_error(self):
        # Measured alternates ±50 around a perfectly-tracked 1000 W target.
        measured = [1000.0 + (50.0 if i % 2 else -50.0) for i in range(100)]
        tr = trace([1000.0] * 100, measured)
        raw = tracking_error_series(tr, 100.0)
        smooth = tracking_error_series(tr, 100.0, smooth_samples=4)
        assert smooth.mean() < raw.mean()

    def test_exact_tracking_scores_zero_at_the_edges(self):
        # A zero-padded moving average would read the first and last samples
        # low: 0.81 at the last sample of this trace with a 4-sample window.
        tr = trace([1000.0] * 20, [1000.0] * 20)
        for width in (2, 3, 4, 5):
            err = tracking_error_series(tr, 100.0, smooth_samples=width)
            assert err.tolist() == [0.0] * 20

    def test_smoothing_keeps_the_interior_average(self):
        rng = np.random.default_rng(3)
        measured = 1000.0 + 50.0 * rng.standard_normal(40)
        tr = trace([1000.0] * 40, measured.tolist())
        err = tracking_error_series(tr, 100.0, smooth_samples=4)
        # Interior sample i averages samples i-2 .. i+1, as mode="same" centres
        # an even window.
        window = np.convolve(measured, np.ones(4) / 4, mode="valid")
        assert err[2:-1].tolist() == (np.abs(window - 1000.0) / 100.0).tolist()

    def test_validates_shape(self):
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            tracking_error_series(np.zeros((5, 2)), 10.0)

    def test_validates_reserve(self):
        with pytest.raises(ValueError, match="positive"):
            tracking_error_series(trace([1.0], [1.0]), 0.0)

    def test_validates_smooth(self):
        with pytest.raises(ValueError, match="≥ 1"):
            tracking_error_series(trace([1.0], [1.0]), 1.0, smooth_samples=0)


class TestConstraint:
    def test_paper_constraint(self):
        c = TrackingConstraint()
        assert c.max_error == 0.30
        assert c.probability == 0.90

    def test_satisfied(self):
        errors = [0.1] * 9 + [0.9]
        assert TrackingConstraint().satisfied(errors)

    def test_violated(self):
        errors = [0.1] * 8 + [0.9, 0.9]
        assert not TrackingConstraint().satisfied(errors)

    def test_observed_percentile(self):
        errors = np.linspace(0.0, 1.0, 101)
        assert TrackingConstraint().observed_percentile(errors) == pytest.approx(0.9)

    def test_helpers(self):
        errors = [0.1, 0.2, 0.4]
        assert fraction_within(errors, 0.3) == pytest.approx(2 / 3)
        assert error_percentile(errors, 50.0) == pytest.approx(0.2)

    def test_empty_errors_rejected(self):
        with pytest.raises(ValueError, match="no error samples"):
            fraction_within([], 0.3)


def scenario(job_id, nodes, sens, *, believed_sens=None):
    true = QuadraticPowerModel.from_anchors(2.0, sens, 140.0, 280.0)
    believed = (
        true
        if believed_sens is None
        else QuadraticPowerModel.from_anchors(2.0, believed_sens, 140.0, 280.0)
    )
    return JobScenario(
        job_id=job_id, nodes=nodes, true_model=true, believed_model=believed,
        p_min=140.0, p_max=280.0,
    )


class TestScenarioSlowdowns:
    def test_known_scenario_uses_same_model(self):
        s = JobScenario.known(
            "a", 2, QuadraticPowerModel.from_anchors(2.0, 1.5, 140.0, 280.0),
            140.0, 280.0,
        )
        assert s.true_model is s.believed_model

    def test_full_budget_no_slowdown(self):
        scenarios = [scenario("a", 1, 1.5), scenario("b", 1, 1.2)]
        slow = estimate_scenario_slowdowns(
            scenarios, EvenSlowdownBudgeter(), budget=560.0
        )
        assert all(v == pytest.approx(0.0, abs=1e-9) for v in slow.values())

    def test_misbelief_starves_underestimated_job(self):
        """The Fig. 5 mechanism: believing a sensitive job insensitive
        starves it relative to the ideal allocation."""
        budget = 420.0  # tight for 2 single-node jobs
        ideal = estimate_scenario_slowdowns(
            [scenario("victim", 1, 1.8), scenario("other", 1, 1.8)],
            EvenSlowdownBudgeter(), budget,
        )
        fooled = estimate_scenario_slowdowns(
            [scenario("victim", 1, 1.8, believed_sens=1.05),
             scenario("other", 1, 1.8)],
            EvenSlowdownBudgeter(), budget,
        )
        assert fooled["victim"] > ideal["victim"]
        assert fooled["other"] < ideal["other"]

    def test_sweep_shapes(self):
        scenarios = [scenario("a", 1, 1.5), scenario("b", 2, 1.2)]
        budgets = np.linspace(3 * 140.0, 3 * 280.0, 7)
        curves = sweep_budgets(scenarios, EvenPowerBudgeter(), budgets)
        assert set(curves) == {"a", "b"}
        assert all(len(v) == 7 for v in curves.values())

    def test_sweep_monotone_under_even_power(self):
        scenarios = [scenario("a", 1, 1.5)]
        budgets = np.linspace(140.0, 280.0, 10)
        curves = sweep_budgets(scenarios, EvenPowerBudgeter(), budgets)
        assert np.all(np.diff(curves["a"]) <= 1e-9)  # more budget, less slowdown
