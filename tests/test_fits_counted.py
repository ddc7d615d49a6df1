"""Fit-when-read and the even-slowdown solve, counted instead of timed.

Wall time says nothing in a shared sandbox; what a seeded run counts repeats
exactly.  ``OnlineModeler.fits_due`` / ``fits_computed`` say how many fits a
run skipped, ``sys.setprofile`` how often a solve re-derives a model constant,
``EvenSlowdownBudgeter.evaluations`` how many totals a run's solves evaluate
and ``reused_solves`` how many of them kept the last solve's ``_Solve``.

Run as a script, this file prints those counts for the quick ``dr16_tick``
run, for a CI summary.
"""

import sys

import pytest

from repro.budget.base import JobBudgetRequest
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.framework import AnorConfig
from repro.core.job_endpoint import JobTierEndpoint
from repro.experiments.fig9 import build_demand_response_system
from repro.modeling.quadratic import FitResult, QuadraticPowerModel


def run_counting_endpoints(monkeypatch, duration, *, seed=3, **periods):
    """One 16-node demand-response run: the system, and every endpoint it
    ever built."""
    endpoints = []
    init = JobTierEndpoint.__init__

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        endpoints.append(self)

    monkeypatch.setattr(JobTierEndpoint, "__init__", recording_init)
    config = AnorConfig(num_nodes=16, seed=seed, **periods)
    system = build_demand_response_system(
        duration=duration, num_nodes=16, seed=seed, config=config
    )
    system.run(duration)
    monkeypatch.undo()
    return system, endpoints


def quick_tick_run():
    """The quick ``dr16_tick`` run: 16 nodes, 1 s periods, 225 s, seed 7000."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        return run_counting_endpoints(monkeypatch, 225.0, seed=7000)


@pytest.fixture(scope="module")
def tick_run():
    return quick_tick_run()[0]


class TestFitsCounted:
    def test_slow_periods_leave_most_due_fits_uncomputed(self, monkeypatch):
        def sums():
            _, endpoints = run_counting_endpoints(
                monkeypatch, 1200.0,
                agent_period=30.0, endpoint_period=30.0, manager_period=60.0,
            )
            return (
                sum(e.modeler.fits_due for e in endpoints),
                sum(e.modeler.fits_computed for e in endpoints),
            )

        due, computed = sums()
        assert 0 < computed < 0.5 * due
        assert sums() == (due, computed)

    def test_every_fit_shared_upward_was_computed(self, monkeypatch):
        shared = []
        step = JobTierEndpoint.step

        def checking_step(self, now):
            status = step(self, now)
            if status is not None and status.has_model and not self.modeler.seeded:
                m = self.modeler
                fit = m._fit  # before the public read below can compute anything
                shared.append(isinstance(fit, FitResult) and m.fits_computed > 0)
                assert (status.model_a, status.model_b, status.model_c) == (
                    m.model.a, m.model.b, m.model.c
                )
                assert m.model is fit.model
            return status

        monkeypatch.setattr(JobTierEndpoint, "step", checking_step)
        _, endpoints = run_counting_endpoints(
            monkeypatch, 400.0, agent_period=1.0, endpoint_period=1.0, manager_period=1.0
        )
        assert shared and all(shared)
        computed = sum(e.modeler.fits_computed for e in endpoints)
        assert 0 < computed <= sum(e.modeler.fits_due for e in endpoints)


class TestSolveCounted:
    def test_a_solve_derives_each_models_constants_once(self):
        """At most one ``t_min`` and one ``t_max`` call per distinct model and
        no ``clamp`` call in one ``allocate``, however many halvings it takes."""
        models = [
            QuadraticPowerModel.from_anchors(1.0 + 0.3 * k, 1.1 + 0.15 * k, 140.0, 280.0)
            for k in range(6)
        ]
        jobs = [
            JobBudgetRequest(f"j{i}", 1 + i % 3, models[i % 6], p_min=140.0, p_max=280.0)
            for i in range(12)
        ]
        budget = 0.55 * sum(j.p_max * j.nodes for j in jobs)
        calls: dict[str, int] = {}

        def profile(frame, event, arg):
            if event == "call":
                name = frame.f_code.co_name
                calls[name] = calls.get(name, 0) + 1

        budgeter = EvenSlowdownBudgeter()
        sys.setprofile(profile)
        try:
            alloc = budgeter.allocate(jobs, budget)
        finally:
            sys.setprofile(None)
        assert 1.0 < alloc.meta["slowdown"]  # a real bisection, not a bracket end
        assert calls["power_for_time"] > 10 * len(models)
        assert calls.get("t_min", 0) <= len(models)
        assert calls.get("t_max", 0) <= len(models)
        assert "clamp" not in calls
        assert alloc.total_power(jobs) == pytest.approx(budget, abs=1e-3)

    def test_a_tick_run_solves_in_few_evaluations_and_all_certified(self, tick_run):
        """The quick ``dr16_tick`` run (16 nodes, 1 s periods, 225 s, seed
        7000): bisection evaluated the total 17.7 times a solve; locate and
        replay from a kept solve take 2.4 on average (3.6 when every solve
        evaluated both bracket ends), and may take at most one more.  Every
        request it sees — NAS truths, ``is`` standing in for ``bt``, the job
        tier's fits — is certified.  A model family that silently loses its
        certificate falls back to every bisection mid and fails here instead
        of costing time."""
        budgeter = tick_run.budgeter
        assert budgeter.solves > 150
        assert budgeter.uncertified_solves == 0
        assert budgeter.evaluations <= 3.4 * budgeter.solves

    def test_a_tick_run_reuses_most_solves(self, tick_run):
        """Between arrivals, departures and accepted fits a round budgets the
        same request objects as the round before, so most solves keep the
        last ``_Solve`` (86 % on this run)."""
        budgeter = tick_run.budgeter
        assert budgeter.reused_solves >= 0.6 * budgeter.solves


if __name__ == "__main__":
    system, endpoints = quick_tick_run()
    b = system.budgeter
    print(f"Quick dr16_tick run (seed 7000, 225 s): {b.solves} solves; "
          f"{b.evaluations / b.solves:.2f} evaluations per solve; "
          f"{b.reused_solves / b.solves:.1%} reused their _Solve "
          f"({b.reused_solves}); fits due {sum(e.modeler.fits_due for e in endpoints)}, "
          f"computed {sum(e.modeler.fits_computed for e in endpoints)}")
