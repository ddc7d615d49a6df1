"""Tests for the per-second tabular simulation loop (paper §5.6)."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.aqa.queues import QueueSet, WorkQueue
from repro.aqa.regulation import BoundedRandomWalkSignal, TabulatedSignal
from repro.aqa.scheduler import WeightedScheduler
from repro.experiments.fig11 import DEFAULT_AVERAGE_POWER, DEFAULT_RESERVE
from repro.tabsim.simulator import (
    SimConfig,
    TabularClusterSimulator,
    _MAX_WINDOW,
    _BusyState,
    _waterfill_cap,
)
from repro.tabsim.tables import SimJobType
from repro.tabsim.variation import draw_node_multipliers, variation_sigma_for_band
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.workloads.generator import PoissonScheduleGenerator
from repro.workloads.nas import long_running_mix
from repro.workloads.trace import JobRequest, Schedule

FLAT = TabulatedSignal([0.0], [0.0])


def sim_type(name="x", nodes=2, t_fast=50.0, t_slow=100.0, p_max=260.0):
    return SimJobType(
        name, nodes, 140.0, p_max, t_at_p_max=t_fast, t_at_p_min=t_slow
    )


def one_job_schedule(type_name="x", nodes=2, submit=0.0):
    return Schedule(
        requests=[JobRequest(submit, "j0", type_name, nodes)], duration=10.0
    )


def make_sim(types=None, schedule=None, *, signal=FLAT, **cfg_kwargs):
    types = types or [sim_type()]
    # An empty Schedule is falsy, so test for None explicitly.
    schedule = schedule if schedule is not None else one_job_schedule()
    defaults = dict(num_nodes=10, average_power=2500.0, reserve=100.0, seed=0)
    defaults.update(cfg_kwargs)
    return TabularClusterSimulator(types, schedule, signal, SimConfig(**defaults))


class TestWaterfill:
    def test_plenty_gives_max(self):
        demand = np.array([200.0, 250.0])
        assert _waterfill_cap(1000.0, demand, 140.0, 280.0) == 280.0

    def test_starved_gives_min(self):
        demand = np.array([200.0, 250.0])
        assert _waterfill_cap(100.0, demand, 140.0, 280.0) == 140.0

    def test_exact_fill(self):
        demand = np.array([200.0, 260.0, 260.0])
        available = 650.0
        cap = _waterfill_cap(available, demand, 140.0, 280.0)
        realised = np.minimum(cap, demand).sum()
        assert realised == pytest.approx(available, rel=1e-9)

    def test_saturated_low_demand_released(self):
        demand = np.array([150.0, 280.0])
        cap = _waterfill_cap(380.0, demand, 140.0, 280.0)
        # 150 saturates; remaining 230 goes to the other node.
        assert cap == pytest.approx(230.0)

    def test_empty(self):
        assert _waterfill_cap(100.0, np.array([]), 140.0, 280.0) == 280.0

    @given(
        st.lists(st.floats(150.0, 280.0), min_size=1, max_size=40),
        st.floats(0.05, 1.2),
    )
    @settings(max_examples=60)
    def test_property_realised_power_matches(self, demands, frac):
        """Realised power equals min(available, Σdemand) whenever the cap
        floor does not force over-consumption."""
        demand = np.asarray(demands)
        available = frac * float(demand.sum())
        cap = _waterfill_cap(available, demand, 140.0, 280.0)
        realised = float(np.minimum(cap, demand).sum())
        floor_power = float(np.minimum(140.0, demand).sum())
        expected = min(available, float(demand.sum()))
        assert realised >= floor_power - 1e-6
        if available >= floor_power:
            assert realised == pytest.approx(max(expected, floor_power), rel=1e-6)


class TestExecutionTiming:
    def test_uncapped_job_finishes_on_schedule(self):
        sim = make_sim()
        result = sim.run(10.0, drain=True, max_time=500.0)
        end = result.job_table.end_time[0]
        # t_fast=50 s; one extra tick of discretization allowed.
        assert end == pytest.approx(50.0, abs=2.0)

    def test_capped_job_slower(self):
        # Budget forces per-node caps to the floor: 2 busy × 140 + 8 idle × 60.
        sim = make_sim(average_power=2.0 * 140.0 + 8 * 60.0, reserve=10.0)
        result = sim.run(10.0, drain=True, max_time=500.0)
        end = result.job_table.end_time[0]
        assert end == pytest.approx(100.0, abs=3.0)

    def test_multi_node_job_waits_for_slowest_node(self):
        sim = make_sim()
        sim.nodes.perf_mult[:] = 1.0
        sim.nodes.perf_mult[0] = 0.5  # straggler host
        result = sim.run(10.0, drain=True, max_time=500.0)
        assert result.job_table.end_time[0] == pytest.approx(100.0, abs=3.0)

    def test_variation_multiplier_speeds_up(self):
        sim = make_sim()
        sim.nodes.perf_mult[:] = 2.0
        result = sim.run(10.0, drain=True, max_time=500.0)
        assert result.job_table.end_time[0] == pytest.approx(25.0, abs=2.0)


class TestSchedulingFlow:
    def test_jobs_queue_when_full(self):
        schedule = Schedule(
            requests=[
                JobRequest(0.0, "a", "x", 6),
                JobRequest(0.0, "b", "x", 6),
            ],
            duration=10.0,
        )
        sim = make_sim(types=[sim_type(nodes=6)], schedule=schedule,
                       num_nodes=10, work_conserving=True)
        result = sim.run(10.0, drain=True, max_time=1000.0)
        starts = result.job_table.start_time[:2]
        assert abs(starts[1] - starts[0]) >= 40.0  # second waited for first

    def test_unknown_type_in_schedule_rejected(self):
        schedule = one_job_schedule(type_name="zz")
        sim = make_sim(schedule=schedule)
        with pytest.raises(KeyError, match="unknown type"):
            sim.run(5.0)

    def test_all_jobs_complete_after_drain(self):
        reqs = [JobRequest(float(i), f"j{i}", "x", 2) for i in range(5)]
        sim = make_sim(schedule=Schedule(requests=reqs, duration=10.0),
                       work_conserving=True)
        result = sim.run(10.0, drain=True, max_time=2000.0)
        assert result.completed_jobs == 5


class TestPowerTracking:
    def test_power_trace_columns(self):
        sim = make_sim()
        result = sim.run(10.0)
        assert result.power_trace.shape == (10, 3)

    def test_idle_cluster_draws_idle_power(self):
        sim = make_sim(schedule=Schedule(duration=5.0))
        result = sim.run(5.0)
        assert result.power_trace[-1, 2] == pytest.approx(10 * 60.0)

    def test_target_follows_signal(self):
        signal = TabulatedSignal([0.0, 5.0], [0.0, 1.0])
        sim = make_sim(signal=signal, average_power=2000.0, reserve=500.0)
        result = sim.run(10.0)
        assert result.power_trace[0, 1] == pytest.approx(2000.0)
        assert result.power_trace[-1, 1] == pytest.approx(2500.0)

    def test_tracking_errors_window(self):
        sim = make_sim()
        result = sim.run(10.0)
        all_errors = result.tracking_errors()
        late = result.tracking_errors(t_start=5.0)
        assert late.size < all_errors.size

    def test_reachable_target_tracked_closely(self):
        # 3 jobs of 2 nodes; target mid-band.
        reqs = [JobRequest(0.0, f"j{i}", "x", 2) for i in range(3)]
        target = 6 * 200.0 + 4 * 60.0
        sim = make_sim(schedule=Schedule(requests=reqs, duration=30.0),
                       average_power=target, reserve=100.0,
                       work_conserving=True)
        result = sim.run(30.0)
        # After the first scheduling tick, measured ≈ target.
        errors = result.tracking_errors(t_start=3.0)
        assert np.median(errors) < 0.2


class TestQoSExtraction:
    def test_qos_by_type(self):
        sim = make_sim()
        result = sim.run(10.0, drain=True, max_time=500.0)
        qos = result.qos_by_type()
        assert "x" in qos
        # Sojourn ≈ 50 s, t_min = 50 s -> Q ≈ 0.
        assert qos["x"][0] == pytest.approx(0.0, abs=0.1)

    def test_qos_percentile(self):
        sim = make_sim()
        result = sim.run(10.0, drain=True, max_time=500.0)
        q90 = result.qos_percentile_by_type(90.0)
        assert q90["x"] == pytest.approx(0.0, abs=0.1)

    def test_zero_reserve_rejected_in_errors(self):
        sim = make_sim(reserve=0.0)
        result = sim.run(5.0)
        with pytest.raises(ValueError, match="undefined"):
            result.tracking_errors()


class TestQosAwareCapping:
    def test_at_risk_jobs_exempted(self):
        # One long-queued job that is already deep into QoS trouble.
        schedule = Schedule(
            requests=[JobRequest(0.0, "a", "x", 2)], duration=400.0
        )
        types = [sim_type(t_fast=50.0, t_slow=100.0)]
        sim = make_sim(
            types=types, schedule=schedule,
            average_power=2 * 140.0 + 8 * 60.0,  # would force floor caps
            reserve=10.0, qos_aware_capping=True, qos_risk_fraction=0.0,
        )
        result = sim.run(10.0, drain=True, max_time=500.0)
        # Exempted from capping ⇒ finishes at (nearly) full speed.
        assert result.job_table.end_time[0] == pytest.approx(50.0, abs=4.0)

    def test_exemption_that_comes_and_goes_leaves_no_stale_power(self):
        """A fast job under a floor cap falls behind its QoS projection,
        is exempted, catches up uncapped and is capped again — with no
        assignment change, at a uniform cap the rate memo has seen before."""
        sim = make_sim(
            average_power=2 * 140.0 + 8 * 60.0, reserve=10.0,
            qos_aware_capping=True, qos_risk_fraction=0.02,
        )
        sim.nodes.perf_mult[:] = 1.5
        table_sums = []
        for _ in range(45):
            sim.step()
            table_sums.append(float(sim.nodes.power.sum()))
        measured = sim.run(45.0).power_trace[:, 2].tolist()
        assert table_sums == measured
        capped, exempt = 2 * 140.0 + 8 * 60.0, 2 * 260.0 + 8 * 60.0
        assert sorted(measured[-6:]) == [capped] * 4 + [exempt] * 2


class TestPowerAwareAdmission:
    def _tight_sim(self, *, admission: bool):
        # Target below the floor power of running both jobs: 4 busy × 140
        # + 6 idle × 60 = 920 < both-floor 8×140 + 2×60 = 1240.
        reqs = [
            JobRequest(0.0, "a", "x", 4),
            JobRequest(0.0, "b", "x", 4),
        ]
        return make_sim(
            types=[sim_type(nodes=4)],
            schedule=Schedule(requests=reqs, duration=10.0),
            average_power=4 * 140.0 + 6 * 60.0 + 50.0,
            reserve=50.0,
            work_conserving=True,
            power_aware_admission=admission,
        )

    def test_deferral_under_tight_target(self):
        sim = self._tight_sim(admission=True)
        result = sim.run(30.0)
        # Only one job may run: starting the second would push even the
        # minimum enforceable power past the target.
        running = (result.job_table.state[:2] == 1).sum()
        assert running == 1

    def test_no_deferral_without_admission_control(self):
        sim = self._tight_sim(admission=False)
        result = sim.run(30.0)
        running = (result.job_table.state[:2] == 1).sum()
        assert running == 2

    def test_deferred_job_eventually_runs(self):
        sim = self._tight_sim(admission=True)
        result = sim.run(10.0, drain=True, max_time=2000.0)
        assert result.completed_jobs == 2

    def test_admission_respects_queue_accounting(self):
        sim = self._tight_sim(admission=True)
        sim.run(10.0, drain=True, max_time=2000.0)
        # All node shares must be released by the end.
        assert all(q.running_nodes == 0 for q in sim.scheduler.queues)


class TestSimConfigValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("dt", 0.0),  # the clock would never advance: run() loops forever
            ("dt", -1.0),
            ("dt", float("nan")),
            ("num_nodes", 0),
            ("average_power", 0.0),
            ("reserve", -1.0),
            ("reserve", 180_000.0),
            ("qos_risk_fraction", -0.1),
            ("variation_band", float("inf")),
        ],
    )
    def test_bad_value_names_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            SimConfig(**{field: value})


class TestVariationHelpers:
    def test_sigma_for_band(self):
        assert variation_sigma_for_band(0.0) == 0.0
        assert variation_sigma_for_band(0.30) == pytest.approx(0.30 / 2.5758, rel=1e-3)

    def test_sigma_negative_band_rejected(self):
        with pytest.raises(ValueError, match="≥ 0"):
            variation_sigma_for_band(-0.1)

    def test_draw_multipliers_stats(self):
        mult = draw_node_multipliers(5000, 0.15, seed=0)
        assert mult.mean() == pytest.approx(1.0, abs=0.01)
        inside = np.mean(np.abs(mult - 1.0) <= 0.15)
        assert inside == pytest.approx(0.99, abs=0.01)

    def test_zero_band_all_ones(self):
        assert (draw_node_multipliers(10, 0.0, seed=0) == 1.0).all()

    def test_floor_applied(self):
        mult = draw_node_multipliers(10000, 3.0, seed=0, floor=0.05)
        assert mult.min() >= 0.05


# ------------------------------------------------------------------ windows


def poisson_sim(
    *, seed=0, nodes=60, node_scale=1, duration=240.0, hold=4.0,
    watts_per_node=180.0, telemetry=NULL_TELEMETRY,
    **cfg_kwargs,
):
    """A busy cluster under a random-walk target: the Fig. 11 recipe, with
    its size, seed and every ``SimConfig`` switch left to the caller."""
    base = long_running_mix()
    types = [SimJobType.from_job_type(jt, node_scale=node_scale) for jt in base]
    scaled = [jt.scaled_nodes(node_scale) for jt in base]
    schedule = PoissonScheduleGenerator(
        scaled, utilization=0.8, total_nodes=nodes, seed=seed
    ).generate(duration)
    signal = BoundedRandomWalkSignal(duration * 4, step=hold, seed=seed + 1)
    cfg = dict(
        num_nodes=nodes,
        average_power=nodes * watts_per_node,
        reserve=nodes * 25.0,
        seed=seed + 2,
    )
    cfg.update(cfg_kwargs)
    config = SimConfig(**cfg)
    return TabularClusterSimulator(types, schedule, signal, config, telemetry=telemetry)


def run_by_steps(sim, duration, *, drain):
    """``run()``'s two loops with every window forced to one step."""
    while sim.now < duration:
        sim.step()
    if drain:
        while sim.now < duration * 4 and (
            sim.jobs.count < len(sim.schedule.requests)
            or not sim.jobs.completed_mask().all()
        ):
            sim.step()
    return sim.run(duration)  # already there: collects the result, steps nothing


def final_state(sim, result):
    out = dict(result.job_table.snapshot())
    out["power_trace"] = result.power_trace
    out["progress"] = sim.nodes.progress
    out["cap"] = sim.nodes.cap
    out["power"] = sim.nodes.power
    out["uniform_cap"] = np.array(sim._uniform_cap, dtype=float)  # None: nan
    return out


SWITCHES = dict(
    seed=st.integers(0, 10_000),
    variation_band=st.sampled_from([0.0, 0.075, 0.3]),
    qos_aware_capping=st.booleans(),
    work_conserving=st.booleans(),
    power_aware_admission=st.booleans(),
    # At 110 W a node the floor of a full cluster sits inside the target's
    # range, so admission defers starts; at 0.02 the QoS exemption comes and
    # goes within a job's life instead of never applying.
    watts_per_node=st.sampled_from([110.0, 180.0]),
    qos_risk_fraction=st.sampled_from([0.02, 0.8]),
    dt=st.sampled_from([0.5, 1.0, 2.0]),
    # 64 s holds outlast the longest window the kernel will build.
    hold=st.sampled_from([1.0, 4.0, 7.0, 64.0]),
)


class TestWindows:
    @given(drain=st.booleans(), **SWITCHES)
    @settings(max_examples=40, deadline=None)
    def test_run_equals_stepping_one_at_a_time(self, drain, **switches):
        """How steps fall into windows is invisible in every output."""
        windowed = poisson_sim(**switches)
        stepped = poisson_sim(**switches)
        got = final_state(windowed, windowed.run(240.0, drain=drain))
        want = final_state(stepped, run_by_steps(stepped, 240.0, drain=drain))
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name], equal_nan=True), name
        rows = want["power_trace"].shape[0]
        assert stepped.windows == rows
        assert windowed.windows <= rows

    @given(**SWITCHES)
    @settings(max_examples=15, deadline=None)
    def test_completion_test_reads_each_jobs_true_minimum(self, **switches):
        """The slowest node recorded at assignment carries the minimum over
        all of its job's nodes on every row the kernel (and the QoS
        projection) asks about."""
        real, calls = _BusyState.job_min, []

        def checked(busy, progress):
            got = real(busy, progress)
            want = np.full(int(busy.job_of.max(initial=-1)) + 1, np.inf)
            np.minimum.at(want, busy.job_of, progress)
            assert sorted(busy.slow_job) == sorted(set(busy.job_of))
            assert np.array_equal(got, want[busy.slow_job])
            calls.append(got.size)
            return got

        with mock.patch.object(_BusyState, "job_min", checked):
            poisson_sim(**switches).run(240.0, drain=True)
        assert sum(calls) > 0

    def test_windows_engage_on_the_fig11_configuration(self):
        sim = poisson_sim(
            seed=3, nodes=1000, node_scale=25, duration=1200.0,
            average_power=DEFAULT_AVERAGE_POWER, reserve=DEFAULT_RESERVE,
            variation_band=0.15,
        )
        rows = sim.run(1200.0, drain=True).power_trace.shape[0]
        assert 0 < sim.windows < 0.2 * rows

    def test_a_target_that_moves_every_step_ends_no_window(self):
        """A moved target needs stage 4 alone, and gets it inside the window:
        each row still carries its own step's target."""
        windowed = poisson_sim(seed=11, hold=1.0)
        stepped = poisson_sim(seed=11, hold=1.0)
        got = final_state(windowed, windowed.run(240.0, drain=True))
        want = final_state(stepped, run_by_steps(stepped, 240.0, drain=True))
        for name in want:
            assert np.array_equal(got[name], want[name], equal_nan=True), name
        times, targets = got["power_trace"][:, 0], got["power_trace"][:, 1]
        assert np.count_nonzero(np.diff(targets)) > 0.9 * times.size
        assert targets.tolist() == [
            windowed.config.target(windowed.signal(t)) for t in times
        ]
        assert stepped.windows == times.size
        assert windowed.windows < 0.5 * times.size

    def test_a_deferred_start_is_asked_again_on_every_step(self):
        """Power-aware admission that defers owes the scheduler a round per
        step — a moved target alone may admit the job — so windows stay one
        step long exactly until the start goes through."""
        def tight():
            # One 4-node job fits under the low target (floor 920 W), two do
            # not (1240 W) until the target rises at t = 13 s.
            reqs = [JobRequest(0.0, "a", "x", 4), JobRequest(0.0, "b", "x", 4)]
            return make_sim(
                types=[sim_type(nodes=4)],
                schedule=Schedule(requests=reqs, duration=10.0),
                signal=TabulatedSignal([0.0, 13.0], [-1.0, 1.0]),
                average_power=1150.0, reserve=150.0,
                work_conserving=True, power_aware_admission=True,
            )

        windowed, stepped = tight(), tight()
        windowed.run(13.0)
        assert windowed.windows == 13  # deferring from the first step on
        got = final_state(windowed, windowed.run(40.0))
        assert windowed.windows == 13 + 2  # 27 more steps, nothing owed
        assert got["start_time"].tolist() == [1.0, 13.0]
        want = final_state(stepped, run_by_steps(stepped, 40.0, drain=False))
        for name in want:
            assert np.array_equal(got[name], want[name], equal_nan=True), name

    @given(
        queues=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.0]),  # weight
                st.integers(0, 12),  # running_nodes
                st.lists(  # pending: (nodes, submit_time)
                    st.tuples(st.integers(1, 8), st.integers(0, 50)), max_size=6
                ),
            ),
            min_size=1, max_size=5,
        ),
        idle=st.integers(0, 40),
        work_conserving=st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_a_scheduler_round_is_a_fixed_point(self, queues, idle, work_conserving):
        """What lets ``_schedule_jobs`` skip the round after one that started
        jobs: asked again with the nodes it left idle, ``schedule`` starts
        nothing."""
        qs = QueueSet(
            WorkQueue(f"q{i}", weight=w, running_nodes=r)
            for i, (w, r, _) in enumerate(queues)
        )
        for i, (_, _, pending) in enumerate(queues):
            for k, (nodes, submit) in enumerate(pending):
                qs.submit(JobRequest(float(submit), f"q{i}-{k}", f"q{i}", nodes))
        scheduler = WeightedScheduler(qs, work_conserving=work_conserving)
        first = scheduler.schedule(idle)
        again = scheduler.schedule(first.idle_nodes_after)
        assert again.to_start == []
        assert again.idle_nodes_after == first.idle_nodes_after

    def test_a_held_target_still_ends_windows(self):
        """Under a flat signal nothing external ends a window; its length
        is still bounded, so a completion never discards more than that."""
        sim = make_sim()  # one 50 s job, FLAT target
        rows = sim.run(10.0, drain=True, max_time=500.0).power_trace.shape[0]
        assert rows / _MAX_WINDOW <= sim.windows < rows / 2

    def test_telemetry_counts_steps_and_changes_nothing(self):
        telemetry = Telemetry()
        observed = poisson_sim(seed=9, telemetry=telemetry)
        plain = poisson_sim(seed=9)
        got = final_state(observed, observed.run(240.0, drain=True))
        want = final_state(plain, plain.run(240.0, drain=True))
        for name in want:
            assert np.array_equal(got[name], want[name], equal_nan=True), name
        rows = want["power_trace"].shape[0]
        assert telemetry.registry.get_value("tabsim_ticks_total") == rows
        assert observed.windows == plain.windows < rows
        assert telemetry.registry.get_value("tabsim_cluster_power_watts") == (
            want["power_trace"][-1, 2]
        )
