"""Properties of the predictive planner (DESIGN.md §9).

Two contracts that must hold for *any* forecaster behaviour:

1. **Safety** — with planning active and a forecaster that is arbitrarily
   wrong (any constant bias), every budget round's planned draw stays
   inside the ceiling the reactive controller enforces.  The envelope's
   min-clamp plus the dispatch-time pool check make this true by
   construction; hypothesis hunts for a bias that breaks it.

2. **Neutrality** — with planning off (the default), runs are bit-identical
   whether the plan knobs are spelled out or absent, through ``run()``'s
   windows and tick by tick, healthy or faulted: the subsystem costs nothing
   when unused.  With planning *on*, ``run()`` and a ``step()``-driven loop
   still agree exactly — plan instants are calendar events, not wall-clock
   surprises.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core import framework  # noqa: E402
from repro.core.framework import AnorConfig  # noqa: E402
from repro.core.targets import SteppedTarget  # noqa: E402
from repro.experiments.fig9 import build_demand_response_system  # noqa: E402
from repro.faults.events import (  # noqa: E402
    CorruptStatus,
    EndpointCrash,
    LinkDegradation,
    MeterOutage,
    NodeCrash,
)
from repro.faults.schedule import FaultSchedule  # noqa: E402
from repro.invariants import RoundMonitor  # noqa: E402
from repro.plan import planner  # noqa: E402
from repro.plan.forecast import ForecastErrorWindow, PersistenceForecaster  # noqa: E402
from tests.goldenlib import run_windowed_and_stepped  # noqa: E402

DURATION = 120.0


def _stepped_target(kind: int) -> SteppedTarget:
    times = [4.0 * k for k in range(80)]
    if kind == 0:  # square wave
        watts = [3000.0 + 500.0 * (-1) ** k for k in range(80)]
    elif kind == 1:  # ramp up then down
        watts = [2500.0 + 30.0 * min(k, 79 - k) for k in range(80)]
    else:  # mostly flat with dips
        watts = [3200.0 - (600.0 if k % 7 == 0 else 0.0) for k in range(80)]
    return SteppedTarget(times, watts)


class BiasedForecaster(PersistenceForecaster):
    """Persistence plus an arbitrary constant offset — a tunable liar."""

    name = "biased"

    def __init__(self, offset: float) -> None:
        super().__init__()
        self.errors = ForecastErrorWindow(8)
        self.offset = float(offset)

    def predict(self, now: float, t: float) -> float:
        return super().predict(now, t) + self.offset


@settings(
    max_examples=6, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(
    bias=st.floats(min_value=-2000.0, max_value=2000.0),
    target_kind=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10),
)
def test_planned_draw_never_exceeds_ceiling_for_any_forecast_bias(
    bias, target_kind, seed
):
    cfg = AnorConfig(
        num_nodes=16,
        seed=seed,
        manager_period=4.0,
        plan_enabled=True,
        plan_forecaster="persistence",
        plan_shadow_rounds=0,
        plan_error_bound_watts=150.0,
    )
    monitor = RoundMonitor()
    system = build_demand_response_system(
        duration=DURATION, seed=seed, target_source=_stepped_target(target_kind),
        config=cfg, monitors=[monitor],
    )
    system.manager.planner.forecaster = BiasedForecaster(bias)
    system.run(DURATION + 60.0)
    assert monitor.rows, "no budget rounds sampled"
    assert not monitor.violations, monitor.violations[:3]


def _run_both(*, seed, faults, plan, spell_out_knobs=True):
    """``(windowed, stepped)`` results of the one scenario."""
    kwargs = dict(
        seed=seed,
        # Every period above the tick, so ``run()`` has windows to batch.
        agent_period=2.0,
        endpoint_period=2.0,
        manager_period=4.0,
    )
    horizon = planner.HORIZON_ROUNDS
    if plan or spell_out_knobs:
        horizon = 6
        kwargs.update(
            plan_enabled=plan,
            plan_forecaster="auto",
            plan_hysteresis_watts=10.0,
            plan_error_bound_watts=150.0,
            plan_shadow_rounds=0,
        )
    schedule = None
    if faults is not None:
        schedule = FaultSchedule.random(DURATION, seed=seed * 31 + 7, rates=faults)

    def build():
        return build_demand_response_system(
            duration=DURATION,
            seed=seed,
            target_source=_stepped_target(0),
            config=AnorConfig(**kwargs),
            fault_schedule=schedule,
        )

    with mock.patch.object(framework, "ENDPOINT_RESTART_DELAY", 15.0), \
            mock.patch.object(planner, "HORIZON_ROUNDS", horizon):
        (_, windowed), (_, stepped) = run_windowed_and_stepped(build, DURATION)
    return windowed, stepped


FAULTS = st.sampled_from(
    [
        None,
        {NodeCrash(time=0.0, down_for=40.0): 1 / 90.0},
        {
            EndpointCrash(time=0.0): 1 / 90.0,
            LinkDegradation(time=0.0, drop_probability=0.2): 1 / 120.0,
        },
        {MeterOutage(time=0.0): 1 / 90.0, CorruptStatus(time=0.0): 1 / 60.0},
    ]
)


def _assert_identical(a, b):
    assert np.array_equal(a.power_trace, b.power_trace)
    assert a.warnings == b.warnings
    assert a.fault_log == b.fault_log
    assert len(a.completed) == len(b.completed)
    assert [t.job_id for t in a.completed] == [t.job_id for t in b.completed]
    assert [t.energy for t in a.completed] == [t.energy for t in b.completed]


@settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(seed=st.integers(min_value=0, max_value=20), faults=FAULTS)
def test_plan_off_is_bit_identical_to_seed_in_both_modes(seed, faults):
    with_knobs = _run_both(seed=seed, faults=faults, plan=False)
    without = _run_both(seed=seed, faults=faults, plan=False, spell_out_knobs=False)
    for spelled, bare in zip(with_knobs, without):
        _assert_identical(spelled, bare)
    _assert_identical(*with_knobs)


@settings(
    max_examples=4, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
@given(seed=st.integers(min_value=0, max_value=20), faults=FAULTS)
def test_plan_active_tick_and_event_modes_agree(seed, faults):
    _assert_identical(*_run_both(seed=seed, faults=faults, plan=True))
