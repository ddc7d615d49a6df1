"""Property: ``run()``'s windows are observationally identical to ticking.

The event-calendar core (DESIGN.md §7) batches control-free ticks into
multi-tick physics windows.  Its contract is not statistical similarity but
bitwise equality: for *any* configuration — multi-rate control periods,
random fault schedules (node/endpoint/head crashes, link bursts, meter
outages, corrupt statuses), cap leases, reliable messaging — the power trace
and every incident log must match a ``step()``-driven loop exactly.
Hypothesis explores that configuration space; one counterexample is a real
bug, not noise.
"""

from unittest import mock

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from repro.core import framework  # noqa: E402
from repro.core.framework import AnorConfig  # noqa: E402
from repro.experiments.fig9 import build_demand_response_system  # noqa: E402
from repro.faults.events import (  # noqa: E402
    CorruptStatus,
    EndpointCrash,
    HeadNodeCrash,
    LinkDegradation,
    MeterOutage,
    NodeCrash,
)
from repro.faults.schedule import FaultSchedule  # noqa: E402
from repro.telemetry.metrics import Histogram  # noqa: E402
from tests.goldenlib import run_windowed_and_stepped  # noqa: E402

DURATION = 180.0

# Multi-rate control planes: (agent, endpoint, manager) periods in seconds.
PERIODS = st.sampled_from(
    [
        (1.0, 1.0, 1.0),
        (2.0, 2.0, 4.0),
        (3.0, 7.0, 11.0),  # co-prime gates: windows of every length 1–3
        (5.0, 5.0, 10.0),
        (5.0, 10.0, 30.0),
        (30.0, 30.0, 60.0),
    ]
)

# Poisson fault rates, including none at all and a head-node crash.
FAULTS = st.sampled_from(
    [
        None,
        {NodeCrash(time=0.0, down_for=40.0): 1 / 90.0},
        {
            EndpointCrash(time=0.0): 1 / 90.0,
            LinkDegradation(time=0.0, drop_probability=0.2): 1 / 120.0,
        },
        {MeterOutage(time=0.0): 1 / 90.0, CorruptStatus(time=0.0): 1 / 60.0},
        {HeadNodeCrash(time=0.0, down_for=25.0): 1 / 150.0},
        {
            NodeCrash(time=0.0, down_for=30.0): 1 / 120.0,
            EndpointCrash(time=0.0): 1 / 120.0,
            HeadNodeCrash(time=0.0, down_for=20.0): 1 / 180.0,
            LinkDegradation(time=0.0, drop_probability=0.2): 1 / 150.0,
            MeterOutage(time=0.0): 1 / 150.0,
            CorruptStatus(time=0.0): 1 / 90.0,
        },
    ]
)


def _build(*, seed, periods, faults, lease, reliable, telemetry):
    agent, endpoint, manager = periods
    config = AnorConfig(
        seed=seed,
        agent_period=agent,
        endpoint_period=endpoint,
        manager_period=manager,
        lease_ttl=20.0 if lease else None,
        reliable_messaging=reliable,
        telemetry_enabled=telemetry,
    )
    schedule = None
    if faults is not None:
        schedule = FaultSchedule.random(DURATION, seed=seed * 31 + 7, rates=faults)
    return build_demand_response_system(
        duration=DURATION, seed=seed, config=config, fault_schedule=schedule
    )


def _registry_samples(system):
    """Every metric's final sample (empty with telemetry off)."""
    def sample(inst):
        if isinstance(inst, Histogram):
            return inst.counts, inst.count, inst.sum
        return inst.value

    return [
        (name, labels, sample(inst))
        for name, _, _, rows in system.telemetry.registry.families()
        for labels, inst in rows
    ]


@settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(min_value=0, max_value=40),
    periods=PERIODS,
    faults=FAULTS,
    lease=st.booleans(),
    reliable=st.booleans(),
    telemetry=st.booleans(),
)
def test_event_mode_bit_identical_to_tick_mode(
    seed, periods, faults, lease, reliable, telemetry
):
    kwargs = dict(
        seed=seed, periods=periods, faults=faults, lease=lease, reliable=reliable,
        telemetry=telemetry,
    )
    # A watchdog quicker than the default, so restarts land inside the run.
    with mock.patch.object(framework, "ENDPOINT_RESTART_DELAY", 15.0):
        (event_system, event), (tick_system, tick) = run_windowed_and_stepped(
            lambda: _build(**kwargs), DURATION
        )
    assert _registry_samples(event_system) == _registry_samples(tick_system)
    assert np.array_equal(event.power_trace, tick.power_trace)
    assert event.warnings == tick.warnings
    assert event.fault_log == tick.fault_log
    assert event.recovery_log == tick.recovery_log
    assert event.partition_events == tick.partition_events
    assert len(event.completed) == len(tick.completed)
    assert [t.job_id for t in event.completed] == [t.job_id for t in tick.completed]
    assert [t.energy for t in event.completed] == [t.energy for t in tick.completed]
