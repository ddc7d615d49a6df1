"""Tests for the safety envelope and the receding-horizon planner."""

import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.budget.base import JobBudgetRequest
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.framework import AnorConfig
from repro.core.targets import SteppedTarget
from repro.experiments.fig9 import build_demand_response_system
from repro.invariants import RoundMonitor
from repro.modeling.quadratic import QuadraticPowerModel
from repro.plan.envelope import (
    MIN_TRIP_SAMPLES,
    PLAN_ACTIVE,
    PLAN_FALLBACK,
    PLAN_SHADOW,
    SafetyEnvelope,
)
from repro.plan.forecast import PersistenceForecaster, ScheduleForecaster
from repro.plan.planner import RecedingHorizonPlanner


def request(job_id, nodes=1, sensitivity=1.5):
    model = QuadraticPowerModel.from_anchors(2.0, sensitivity, 140.0, 280.0)
    return JobBudgetRequest(
        job_id=job_id, nodes=nodes, model=model, p_min=140.0, p_max=280.0
    )


JOBS = [request("a", 2), request("b", 1, 1.2)]


class TestEnvelope:
    def test_starts_shadow_by_default(self):
        env = SafetyEnvelope(error_bound_watts=100.0, promote_rounds=4)
        assert env.state == PLAN_SHADOW

    def test_zero_promote_rounds_starts_active(self):
        env = SafetyEnvelope(error_bound_watts=100.0, promote_rounds=0)
        assert env.state == PLAN_ACTIVE

    def test_promotion_needs_consecutive_ok_rounds(self):
        env = SafetyEnvelope(error_bound_watts=100.0, promote_rounds=3)
        assert env.update(0.0, 50.0, 1) == PLAN_SHADOW
        assert env.update(4.0, 50.0, 2) == PLAN_SHADOW
        assert env.update(8.0, 50.0, 3) == PLAN_ACTIVE

    def test_bad_round_resets_promotion_streak(self):
        env = SafetyEnvelope(error_bound_watts=100.0, promote_rounds=2)
        env.update(0.0, 50.0, 1)
        env.update(4.0, 500.0, 2)  # streak broken
        assert env.update(8.0, 50.0, 3) == PLAN_SHADOW
        assert env.update(12.0, 50.0, 4) == PLAN_ACTIVE

    def test_trip_requires_min_samples(self):
        env = SafetyEnvelope(error_bound_watts=100.0, promote_rounds=0)
        # over bound but too few scored samples: stays active
        assert env.update(0.0, 500.0, MIN_TRIP_SAMPLES - 1) == PLAN_ACTIVE
        assert env.update(4.0, 500.0, MIN_TRIP_SAMPLES) == PLAN_FALLBACK
        assert env.fallbacks == 1
        assert env.first_fallback_time() == 4.0

    def test_fallback_recovery(self):
        env = SafetyEnvelope(error_bound_watts=100.0, promote_rounds=2)
        env.state = PLAN_FALLBACK
        env.update(0.0, 50.0, 8)
        assert env.state == PLAN_FALLBACK
        env.update(4.0, 50.0, 8)
        assert env.state == PLAN_SHADOW  # re-earns trust through shadow

    def test_bound_is_min(self):
        assert SafetyEnvelope.bound(3000.0, 2800.0) == 2800.0
        assert SafetyEnvelope.bound(2500.0, 2800.0) == 2500.0

    def test_transitions_recorded(self):
        env = SafetyEnvelope(error_bound_watts=100.0, promote_rounds=1)
        env.update(0.0, 50.0, 1)
        assert env.transitions == [(0.0, PLAN_SHADOW, PLAN_ACTIVE)]
        assert env.first_active_time() == 0.0


@pytest.fixture
def four_round_horizon(monkeypatch):
    """The unit tests' planners look four rounds ahead."""
    monkeypatch.setattr("repro.plan.planner.HORIZON_ROUNDS", 4)


def make_planner(forecaster=None, **kwargs):
    f = forecaster or PersistenceForecaster()
    defaults = dict(
        budgeter=EvenSlowdownBudgeter(),
        forecaster=f,
        envelope=SafetyEnvelope(error_bound_watts=100.0, promote_rounds=0),
        period=4.0,
        hysteresis_watts=8.0,
    )
    defaults.update(kwargs)
    return RecedingHorizonPlanner(**defaults)


@pytest.mark.usefixtures("four_round_horizon")
class TestPlannerRebuild:
    def test_plan_covers_horizon(self):
        p = make_planner()
        p.observe(0.0, 3000.0)
        plan = p.rebuild(
            0.0, JOBS, observed_target=3000.0, idle_power=100.0,
            reserved=0.0, correction=0.0,
        )
        assert [r.time for r in plan.rounds] == [0.0, 4.0, 8.0, 12.0, 16.0]
        assert p.plans_built == 1

    def test_schedule_breakpoints_join_the_grid(self):
        stepped = SteppedTarget([0.0, 6.0], [3000.0, 2500.0])
        p = make_planner(ScheduleForecaster(stepped))
        p.observe(0.0, 3000.0)
        plan = p.rebuild(
            0.0, JOBS, observed_target=3000.0, idle_power=100.0,
            reserved=0.0, correction=0.0,
        )
        assert 6.0 in [r.time for r in plan.rounds]
        assert p.next_instant() == 6.0

    def test_envelope_clamps_planned_budget(self):
        # Forecast says 3000 W but we only observed 500 W: every horizon
        # budget must be solved against the min.
        stepped = SteppedTarget([0.0], [3000.0])
        p = make_planner(ScheduleForecaster(stepped))
        p.observe(0.0, 500.0)
        plan = p.rebuild(
            0.0, JOBS, observed_target=500.0, idle_power=100.0,
            reserved=0.0, correction=0.0,
        )
        for rnd in plan.rounds:
            assert rnd.effective_target == 500.0
            assert rnd.budget == pytest.approx(400.0)

    def test_lazy_default_defers_solves_until_warm_dispatch(self):
        # A rebuild costs no budgeter solves; caps materialize only when a
        # dispatch warm-hits the round's budget.
        p = make_planner()
        p.observe(0.0, 3000.0)
        plan = p.rebuild(
            0.0, JOBS, observed_target=3000.0, idle_power=100.0,
            reserved=0.0, correction=0.0,
        )
        assert all(r.caps is None and r.planned_watts is None for r in plan.rounds)
        assert p.lazy_solves == 0
        alloc = p.dispatch(0.0, JOBS, plan.rounds[0].budget, {})
        assert alloc.meta["plan_warm"] == 1.0
        assert p.lazy_solves == 1
        assert p.plan.rounds[0].caps is not None

    def test_clear_drops_plan_and_instants(self):
        stepped = SteppedTarget([0.0, 6.0], [3000.0, 2500.0])
        p = make_planner(ScheduleForecaster(stepped))
        p.observe(0.0, 3000.0)
        p.rebuild(
            0.0, JOBS, observed_target=3000.0, idle_power=100.0,
            reserved=0.0, correction=0.0,
        )
        p.clear()
        assert p.plan is None
        assert p.next_instant() is None


@pytest.mark.usefixtures("four_round_horizon")
class TestPlannerInstants:
    def test_instants_hidden_unless_active(self):
        stepped = SteppedTarget([0.0, 6.0], [3000.0, 2500.0])
        p = make_planner(
            ScheduleForecaster(stepped),
            envelope=SafetyEnvelope(error_bound_watts=100.0, promote_rounds=4),
        )
        p.observe(0.0, 3000.0)
        p.rebuild(
            0.0, JOBS, observed_target=3000.0, idle_power=100.0,
            reserved=0.0, correction=0.0,
        )
        assert p.state == "shadow"
        assert p.next_instant() is None  # shadow must stay reactive
        assert p.take_due_instants(6.0) is False

    def test_take_due_instants_pops(self):
        stepped = SteppedTarget([0.0, 6.0, 10.0], [3000.0, 2500.0, 2600.0])
        p = make_planner(ScheduleForecaster(stepped))
        p.observe(0.0, 3000.0)
        p.rebuild(
            0.0, JOBS, observed_target=3000.0, idle_power=100.0,
            reserved=0.0, correction=0.0,
        )
        assert p.take_due_instants(5.0) is False
        assert p.take_due_instants(6.0) is True
        assert p.next_instant() == 10.0


@pytest.mark.usefixtures("four_round_horizon")
class TestPlannerDispatch:
    def _build(self, target=3000.0):
        stepped = SteppedTarget([0.0], [target])
        p = make_planner(ScheduleForecaster(stepped))
        p.observe(0.0, target)
        p.rebuild(
            0.0, JOBS, observed_target=target, idle_power=100.0,
            reserved=0.0, correction=0.0,
        )
        # These tests inspect the round they dispatch against: solve it.
        p._materialize(p.plan.rounds[0], JOBS)
        return p

    def test_warm_hit_reuses_planned_caps(self):
        p = self._build()
        planned = p.plan.rounds[0]
        alloc = p.dispatch(0.0, JOBS, planned.budget, {"a": None, "b": None})
        assert alloc.meta["plan_warm"] == 1.0
        assert alloc.caps == dict(planned.caps)
        assert p.warm_hits == 1

    def test_pool_mismatch_forces_fresh_solve(self):
        p = self._build()
        alloc = p.dispatch(0.0, JOBS, 450.0, {"a": None, "b": None})
        assert alloc.meta["plan_warm"] == 0.0
        assert p.fresh_solves == 1

    def test_job_set_change_forces_fresh_solve(self):
        p = self._build()
        jobs = JOBS + [request("c", 1)]
        planned = p.plan.rounds[0]
        alloc = p.dispatch(0.0, jobs, planned.budget, {})
        assert alloc.meta["plan_warm"] == 0.0

    def test_inactive_returns_none(self):
        p = make_planner(
            envelope=SafetyEnvelope(error_bound_watts=100.0, promote_rounds=4)
        )
        p.observe(0.0, 3000.0)
        assert p.dispatch(0.0, JOBS, 1000.0, {}) is None

    def test_hysteresis_holds_small_moves(self):
        # target 700 W keeps the solved caps mid-range, not pinned at p_max
        p = self._build(target=700.0)
        planned = p.plan.rounds[0]
        last = {j.job_id: planned.caps[j.job_id] - 3.0 for j in JOBS}
        alloc = p.dispatch(0.0, JOBS, planned.budget, last)
        assert alloc.meta.get("plan_held_caps") == len(JOBS)
        for j in JOBS:
            assert alloc.caps[j.job_id] == last[j.job_id]

    def test_hysteresis_rejected_when_held_total_overflows_pool(self):
        p = self._build(target=700.0)
        planned = p.plan.rounds[0]
        # previous caps 3 W higher per node but pool is exactly the planned
        # total: holding would over-commit, so the fresh caps must win.
        last = {j.job_id: planned.caps[j.job_id] + 3.0 for j in JOBS}
        alloc = p.dispatch(0.0, JOBS, planned.planned_watts, last)
        for j in JOBS:
            assert alloc.caps[j.job_id] == pytest.approx(planned.caps[j.job_id], abs=0.5)

    def test_observe_scores_pending_points(self):
        p = self._build()
        assert p.forecaster.errors.count == 0
        p.observe(4.0, 2900.0)  # plan predicted 3000 at t=4
        assert p.forecaster.errors.count == 1
        assert p.forecaster.mae == pytest.approx(100.0)
        assert p.forecaster.bias == pytest.approx(-100.0)  # actual below plan


class TestSystemIntegration:
    """Plan-enabled end-to-end runs: invariants, metrics, cadence."""

    def _system(self, duration=120.0, monitors=(), **plan_kwargs):
        times = [4.0 * k for k in range(int(duration) // 2)]
        watts = [3000.0 + 400.0 * ((k % 3) - 1) for k in range(len(times))]
        stepped = SteppedTarget(times, watts)
        cfg = AnorConfig(
            num_nodes=16,
            seed=0,
            manager_period=4.0,
            plan_enabled=True,
            plan_forecaster="auto",
            plan_shadow_rounds=0,
            telemetry_enabled=True,
            **plan_kwargs,
        )
        return build_demand_response_system(
            duration=duration, seed=0, target_source=stepped, config=cfg,
            monitors=monitors,
        )

    def test_budget_round_invariant_holds(self):
        monitor = RoundMonitor()
        self._system(monitors=[monitor]).run(240.0)
        assert monitor.rows, "no budget rounds sampled"
        assert not monitor.violations

    def test_plan_metrics_exported(self):
        system = self._system()
        for _ in range(120):
            system.step()
        reg = system.telemetry.registry
        assert reg.get_value("anor_plan_state") == 1.0  # active
        assert reg.get_value("anor_forecast_error_watts") is not None
        assert reg.get_value("anor_plan_fallbacks_total") == 0.0
        assert reg.get_value("anor_cap_rewrites_total") > 0

    def test_planner_builds_plans_and_fires_instants(self):
        system = self._system()
        for _ in range(120):
            system.step()
        planner = system.manager.planner
        assert planner.plans_built > 0
        assert planner.active
        # the schedule forecaster surfaced breakpoints and the manager
        # consumed them: rounds happened at exact 4 s target steps
        times = {rnd for rnd in (system.manager.last_round.time,) if rnd}
        assert times

    def test_plan_rounds_land_on_target_breakpoints(self):
        monitor = RoundMonitor()
        self._system(monitors=[monitor]).run(120.0)
        seen = [row[0] for row in monitor.rows]
        # after the first instant consumed (t=12), active-plan rounds
        # re-anchor to the 4 s breakpoint grid
        later = [t for t in seen if t >= 12.0]
        assert later
        assert all(t % 4.0 == 0.0 for t in later)

    def test_plan_off_manager_has_no_planner(self):
        cfg = AnorConfig(num_nodes=16, seed=0)
        system = build_demand_response_system(duration=60.0, seed=0, config=cfg)
        assert system.manager.planner is None
        assert system.manager.next_plan_instant() is None
        assert system.manager.plan_instant_due(1.0) is False


class TokenSignature:
    """The plan signature as it was built before it became the request
    tuple (``RecedingHorizonPlanner.rebuild`` / ``dispatch``): each model interned to a small int, value-equal models sharing
    one, every model object pinned so its ``id()`` is never reused.  The
    test-side reference the tuple's ``==`` is held to."""

    def __init__(self) -> None:
        self._model_tokens: dict[int, int] = {}
        self._model_index: dict[object, int] = {}
        self._model_refs: list[object] = []

    def _model_token(self, model: object) -> int:
        token = self._model_tokens.get(id(model))
        if token is not None:
            return token
        token = self._model_index.get(model)
        if token is None:
            token = len(self._model_refs)
            self._model_index[model] = token
        self._model_tokens[id(model)] = token
        self._model_refs.append(model)
        return token

    def __call__(self, requests) -> tuple:
        return tuple(
            (j.job_id, j.nodes, self._model_token(j.model), j.p_min, j.p_max)
            for j in requests
        )


def signature_models():
    """Fresh objects each call: value-equal pairs (``-0.0`` equals ``0.0``),
    and models one coefficient or one ceiling apart."""
    return [
        QuadraticPowerModel(0.0, -0.01, 5.0, 140.0, 280.0),
        QuadraticPowerModel(-0.0, -0.01, 5.0, 140.0, 280.0),
        QuadraticPowerModel(0.0, -0.01, 5.0 + 1e-12, 140.0, 280.0),
        QuadraticPowerModel(0.0, -0.01, 5.0, 140.0, 272.0),
        QuadraticPowerModel.from_anchors(2.0, 1.5, 140.0, 280.0),
        QuadraticPowerModel.from_anchors(2.0, 1.5, 140.0, 280.0),
    ]


#: One job of a round: id, width, model, p_max, and whether its request
#: is the last built for this spec (the same object) or a new one.
job_draws = st.tuples(
    st.sampled_from("abc"), st.integers(1, 2), st.integers(0, 5),
    st.sampled_from([240.0, 280.0]), st.booleans(),
)


class TestSignature:
    @given(
        st.lists(st.lists(job_draws, max_size=4), min_size=2, max_size=12),
        st.integers(0, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_the_request_tuple_compares_as_the_token_signature(self, rounds, refit):
        """Over rounds of requests whose models are the same objects,
        value-equal new objects or different ones, two rounds' tuple
        signatures are ``==`` exactly when their token signatures are."""
        models, old, built = signature_models(), TokenSignature(), {}
        new_sigs, old_sigs = [], []
        for k, jobs in enumerate(rounds):
            if k == len(rounds) // 2:  # a refit: new objects from here on
                models[refit] = signature_models()[refit]
            requests = []
            for job_id, nodes, m, p_max, same in jobs:
                spec = (job_id, nodes, id(models[m]), p_max)
                if not same or spec not in built:
                    built[spec] = JobBudgetRequest(job_id, nodes, models[m], 140.0, p_max)
                requests.append(built[spec])
            new_sigs.append(tuple(requests))
            old_sigs.append(old(requests))
        for i in range(len(rounds)):
            for j in range(i + 1):
                assert (new_sigs[i] == new_sigs[j]) is (old_sigs[i] == old_sigs[j])

    def test_a_superseded_fit_is_not_held_once_no_plan_round_holds_it(self):
        """5 000 rounds of a job whose fit churns every round: every round
        rebuilds the plan, so its rounds hold only this round's fit, and a
        superseded fit is unreachable at once (the token signature pinned
        every model it ever saw)."""
        p = make_planner()
        steady = request("b", 1, 1.2)
        alive: list[weakref.ref] = []
        for k in range(5000):
            now = 4.0 * k
            model = QuadraticPowerModel.from_anchors(2.0, 1.3 + k * 1e-5, 140.0, 280.0)
            jobs = [JobBudgetRequest("a", 2, model, 140.0, 280.0), steady]
            p.observe(now, 3000.0)
            p.dispatch(now, jobs, 600.0, {"a": None, "b": None})
            p.rebuild(now, jobs, observed_target=3000.0, idle_power=100.0,
                      reserved=0.0, correction=0.0)
            alive.append(weakref.ref(model))
            del model, jobs
            alive = [ref for ref in alive if ref() is not None]
            assert len(alive) == 1, k
        assert p.plans_built == 5000
