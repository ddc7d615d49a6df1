"""Event-calendar core: tick sequences, free-tick counting, stride parity.

Unit-level counterpart to ``tests/test_properties_event.py``: these tests
pin the exact arithmetic the event-driven loop relies on — ``tick_times``
matching the ``+=`` chain bit for bit, ``free_ticks`` replaying each gate's
own comparison, and the batched cluster stride reproducing per-tick physics
observable for observable.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core import framework
from repro.core.framework import AnorConfig, AnorSystem
from repro.durable.journal import Journal
from repro.experiments.fig9 import build_demand_response_system
from repro.hwsim.cluster import EmulatedCluster
from repro.util.calendar import EventCalendar
from repro.util.clock import PeriodicGate, SimClock
from repro.workloads.nas import NAS_TYPES
from tests.goldenlib import run_windowed_and_stepped


class TestTickTimes:
    def test_matches_the_advance_chain_bitwise(self):
        # The stride compares these instants against gate grids, so they
        # must equal the floats repeated advance() would produce — not just
        # approximately, bit for bit, drift included.
        clock = SimClock()
        clock.advance(0.1)  # a start instant with no exact binary form
        times = clock.tick_times(50, 0.1)
        mirror = SimClock()
        mirror.advance(0.1)
        walked = [mirror.advance(0.1) for _ in range(50)]
        assert times.tolist() == walked

    def test_clock_does_not_move(self):
        clock = SimClock()
        clock.tick_times(10, 1.0)
        assert clock.now == 0.0

    def test_advance_to_lands_exactly(self):
        clock = SimClock()
        times = clock.tick_times(7, 0.1)
        clock.advance_to(float(times[-1]))
        assert clock.now == times[-1]

    def test_advance_to_rejects_backwards(self):
        clock = SimClock()
        clock.advance(5.0)
        with pytest.raises(ValueError, match="backwards"):
            clock.advance_to(1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="count"):
            SimClock().tick_times(-1, 1.0)


class TestEventCalendar:
    def test_empty_calendar_is_unbounded(self):
        cal = EventCalendar()
        assert cal.horizon() == float("inf")
        assert cal.free_ticks(np.arange(1.0, 10.0)) == 9

    def test_unanchored_gate_blocks_everything(self):
        cal = EventCalendar()
        cal.add_gate(PeriodicGate(5.0))  # fires on its very first poll
        assert cal.horizon() == float("-inf")
        assert cal.free_ticks(np.arange(1.0, 10.0)) == 0

    def test_instant_bounds_the_prefix(self):
        cal = EventCalendar()
        cal.add_instant(4.0)
        # Ticks strictly before the instant are free; t=4.0 would satisfy
        # the ``event_time <= now`` guard, so it is not.
        assert cal.free_ticks(np.array([1.0, 2.0, 3.0, 4.0, 5.0])) == 3

    @pytest.mark.parametrize("period", [2.5, 3.0, 7.7])
    def test_free_ticks_replays_gate_polling_exactly(self, period):
        # Ground truth: poll a gate tick by tick on a drift-y float grid and
        # count iterations before it fires.  The calendar must agree using
        # only the gate's phase — same comparison, vectorised.
        gate = PeriodicGate(period)
        gate.due(0.1)  # anchor at an inexact float
        clock = SimClock()
        clock.advance(0.1)
        times = clock.tick_times(64, 0.1)
        probe = PeriodicGate(period)
        probe.restore(*gate.phase)
        expected = 0
        for t in times:
            if probe.due(float(t)):
                break
            expected += 1
        cal = EventCalendar()
        cal.add_gate(gate)
        assert cal.free_ticks(times) == expected

    def test_tightest_source_wins(self):
        gate = PeriodicGate(10.0)
        gate.due(0.0)
        cal = EventCalendar()
        cal.add_gate(gate)
        cal.add_instant(3.0)
        times = np.arange(1.0, 9.0)
        assert cal.free_ticks(times) == 2  # the instant, not the gate
        assert cal.horizon() == 3.0


def _make_cluster(seed: int) -> EmulatedCluster:
    cluster = EmulatedCluster(num_nodes=6, seed=seed)
    cluster.start_job("j-bt", NAS_TYPES["bt"])  # 2 nodes
    cluster.start_job("j-lu", NAS_TYPES["lu"])  # 1 node
    cluster.start_job("j-ft", NAS_TYPES["ft"])  # 2 nodes; 1 node stays idle
    return cluster


def _observables(cluster: EmulatedCluster):
    return {
        "energy": [n.total_energy for n in cluster.nodes],
        "last_power": [n.last_power for n in cluster.nodes],
        "history": cluster.power_history().tolist(),
        "progress": {
            j.job_id: (j.phase, j.phase_elapsed, j._rank_progress.tolist())
            for j in cluster.running.values()
        },
        "epochs": {
            j.job_id: j.profiler.epoch_count for j in cluster.running.values()
        },
        "completed": [t.job_id for t in cluster.completed],
    }


class TestStrideParity:
    def test_batched_stride_equals_per_tick_advance(self):
        # Two identically-seeded clusters; one ticks, one strides.  Every
        # observable — energies, meter history, rank progress, profiler
        # counts — must come out bit-identical.
        ticked = _make_cluster(seed=9)
        strided = _make_cluster(seed=9)
        dt = 1.0
        for _ in range(40):
            ticked.clock.advance(dt)
            ticked.advance(dt)
        remaining = 40
        while remaining > 0:
            times = strided.clock.tick_times(remaining, dt)
            assert strided.stride_ready()
            ticks, _ = strided.advance_stride(times, dt)
            assert ticks >= 1
            strided.clock.advance_to(float(times[ticks - 1]))
            remaining -= ticks
        assert _observables(ticked) == _observables(strided)

    def test_stride_truncates_at_phase_transitions(self):
        # Setup lasts 5 s: a 20-tick request runs every job through its
        # setup→compute turn on tick 5 — only a release, or a job's second
        # turn in one window, ends a window before the last tick asked for.
        cluster = _make_cluster(seed=1)
        times = cluster.clock.tick_times(20, 1.0)
        ticks, _ = cluster.advance_stride(times, 1.0)
        assert ticks == 20
        assert all(j.phase.name == "COMPUTE" for j in cluster.running.values())
        assert {j._compute_started for j in cluster.running.values()} == {5.0}
        cluster.clock.advance_to(float(times[-1]))
        # A one-epoch job on the idle node turns twice in its first window:
        # that window stops on its compute→teardown turn, the next on its
        # release, the tick the scheduler must see the node free again.
        brief = cluster.start_job("j-brief", replace(NAS_TYPES["is"], epochs=1, t_uncapped=1.5))
        times = cluster.clock.tick_times(20, 1.0)
        ticks, _ = cluster.advance_stride(times, 1.0)
        assert 7 <= ticks < 20
        assert brief.phase.name == "TEARDOWN" and brief._compute_finished == times[ticks - 1]
        cluster.clock.advance_to(float(times[ticks - 1]))
        times = cluster.clock.tick_times(20, 1.0)
        ticks, _ = cluster.advance_stride(times, 1.0)
        assert ticks == 3  # the 3 s teardown
        assert "j-brief" not in cluster.running
        assert [t.job_id for t in cluster.completed] == ["j-brief"]


class TestFrameworkEquivalence:
    def test_multirate_run_identical_between_modes(self):
        # Agents faster than endpoints, and slower: then an endpoint reads
        # one sample for several periods.
        for agent, endpoint in ((5.0, 10.0), (10.0, 5.0)):

            def build():
                config = AnorConfig(
                    seed=3, agent_period=agent, endpoint_period=endpoint,
                    manager_period=30.0,
                )
                return build_demand_response_system(duration=240.0, seed=3, config=config)

            (_, windowed), (_, stepped) = run_windowed_and_stepped(build, 240.0)
            assert np.array_equal(windowed.power_trace, stepped.power_trace)
            assert windowed.warnings == stepped.warnings
            assert [t.job_id for t in windowed.completed] == [
                t.job_id for t in stepped.completed
            ]

    def test_arrivals_inside_a_window_are_journalled_at_their_own_ticks(
        self, tmp_path, monkeypatch
    ):
        """Durable on, 30/30/60 s periods: an arrival the scheduler would not
        start joins the queue inside a window, stamped with its own tick."""
        journals: dict = {}
        append = Journal.append

        def recording(self, rtype, time, data):
            journals.setdefault(self.path, []).append((rtype, time, data))
            return append(self, rtype, time, data)

        bodies: list[float] = []  # the due tick of every run() loop body
        free_ticks = AnorSystem._free_ticks

        def body(self, now, limits):
            bodies.append(now)
            return free_ticks(self, now, limits)

        monkeypatch.setattr(Journal, "append", recording)
        monkeypatch.setattr(AnorSystem, "_free_ticks", body)
        arms = iter(("windowed", "stepped"))

        def build():
            config = AnorConfig(
                seed=3, agent_period=30.0, endpoint_period=30.0, manager_period=60.0,
                checkpoint_dir=str(tmp_path / next(arms)),
            )
            return build_demand_response_system(duration=900.0, seed=3, config=config)

        (windowed, _), (stepped, _) = run_windowed_and_stepped(build, 900.0)
        records = [journals[s.durable.journal.path] for s in (windowed, stepped)]
        assert records[0] == records[1]
        queued = {
            t for rtype, t, data in records[0] if rtype == "job-admit" and data["kind"] == "queue"
        }
        assert queued - set(bodies), "no arrival was admitted inside a window"


PERIODS = st.sampled_from([1.0, 4.0, 30.0, 60.0])


class TestGatePreScreen:
    """``_free_ticks`` first reads the endpoint and agent gates alone and
    builds no calendar where they leave no free tick (DESIGN.md §7, *The
    gate pre-screen*); ``_calendar_ticks`` is the screen without it."""

    @settings(max_examples=150, deadline=None)
    @given(
        periods=st.tuples(PERIODS, PERIODS, PERIODS),
        steps=st.integers(1, 70),
        phases=st.lists(
            st.one_of(
                st.none(),
                st.tuples(
                    st.one_of(st.sampled_from([0.0, 0.5]), st.floats(0.0, 1.0)),
                    st.integers(0, 3),
                ),
            ),
            min_size=3, max_size=3,
        ),
        instants=st.lists(st.floats(-5.0, 200.0), max_size=3),
        limits=st.tuples(
            st.floats(0.0, 70.0), st.one_of(st.none(), st.floats(0.0, 300.0)),
            st.booleans(), st.floats(1.0, 400.0),
        ),
    )
    # Gates two ticks out: one free tick, the screen's edge case.
    @example((1.0, 1.0, 1.0), 1, [(0.0, 2)] * 3, [], (0.0, None, False, 400.0))
    @example((4.0, 4.0, 30.0), 9, [(0.5, 1)] * 3, [50.0], (0.0, 300.0, True, 400.0))
    def test_property_same_instants_with_and_without_it(
        self, periods, steps, phases, instants, limits
    ):
        agent, endpoint, manager = periods
        config = AnorConfig(
            seed=2, agent_period=agent, endpoint_period=endpoint, manager_period=manager
        )
        system = build_demand_response_system(duration=300.0, seed=2, config=config)
        for _ in range(steps):
            system.step()
        now = system.cluster.clock.now
        gates = (system._agent_gate, system._endpoint_gate, system._manager_gate)
        for gate, phase in zip(gates, phases):
            if phase is None:
                gate.restore(None, 0)  # fires on its next poll
            else:
                # Anchored up to a period back, 0–3 firings past the anchor.
                back, fires = phase
                gate.restore(now - back * gate.period, fires)
        system._endpoint_restarts += [(now + t, "j-none") for t in instants]
        full = system._calendar_ticks(now, limits)
        assert list(system._free_ticks(now, limits)) == list(full)

    def test_a_one_second_run_builds_no_calendar(self, monkeypatch):
        built = []

        class Counted(EventCalendar):
            def __init__(self):
                super().__init__()
                built.append(self)

        monkeypatch.setattr(framework, "EventCalendar", Counted)
        system = build_demand_response_system(duration=120.0, seed=1)
        assert system.config.agent_period == system.config.endpoint_period == 1.0
        system.run(120.0)
        assert system.cluster.clock.now == 120.0 and not built
        # The counter counts: at 30 s periods the same run builds calendars.
        config = AnorConfig(seed=1, agent_period=30.0, endpoint_period=30.0, manager_period=30.0)
        build_demand_response_system(duration=120.0, seed=1, config=config).run(120.0)
        assert built
