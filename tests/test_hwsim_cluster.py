"""Tests for the emulated cluster: allocation, metering, lifecycle."""

import gc
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.geopm.agent import AgentPolicy
from repro.geopm.msr import MSR_PKG_ENERGY_STATUS
from repro.geopm.signals import ControlNames
from repro.hwsim.cluster import EmulatedCluster
from repro.workloads.nas import NAS_TYPES
from repro.workloads.phased import make_two_phase_type
from tests.hwsim_reference import node_streams, scalar_advance


class TestAllocation:
    def test_allocates_requested_nodes(self):
        cluster = EmulatedCluster(4, seed=0)
        job = cluster.start_job("j", NAS_TYPES["ft"])  # 2 nodes
        assert len(job.nodes) == 2
        assert len(cluster.idle_nodes()) == 2

    def test_duplicate_job_id_rejected(self):
        cluster = EmulatedCluster(4, seed=0)
        cluster.start_job("j", NAS_TYPES["is"])
        with pytest.raises(ValueError, match="already running"):
            cluster.start_job("j", NAS_TYPES["is"])

    def test_insufficient_nodes_rejected(self):
        cluster = EmulatedCluster(1, seed=0)
        with pytest.raises(RuntimeError, match="not enough idle"):
            cluster.start_job("j", NAS_TYPES["ft"])  # needs 2

    def test_explicit_nodes(self):
        cluster = EmulatedCluster(4, seed=0)
        chosen = [cluster.nodes[3]]
        job = cluster.start_job("j", NAS_TYPES["is"], nodes=chosen)
        assert job.nodes == chosen
        assert cluster.nodes[3].job_id == "j"

    def test_busy_node_cannot_be_reallocated(self):
        cluster = EmulatedCluster(2, seed=0)
        cluster.start_job("a", NAS_TYPES["is"], nodes=[cluster.nodes[0]])
        with pytest.raises(RuntimeError, match="already allocated"):
            cluster.start_job("b", NAS_TYPES["is"], nodes=[cluster.nodes[0]])

    @staticmethod
    def _after_refusal(bad_nodes) -> tuple[list, list]:
        """A refused start, then a good one and three ticks, against the
        good one alone: the refused call moved nothing, no stream either."""
        runs = []
        for refuse in (True, False):
            cluster = EmulatedCluster(4, seed=1)
            if refuse:
                n0, n1 = cluster.nodes[:2]
                with pytest.raises(ValueError, match="job j: "):
                    cluster.start_job("j", NAS_TYPES["bt"], nodes=bad_nodes(n0, n1))
                assert not cluster.running and cluster.idle_count() == 4
                assert all(n.job_id is None for n in cluster.nodes)
            job = cluster.start_job("k", NAS_TYPES["bt"])
            for _ in range(3):
                cluster.clock.advance(1.0)
                cluster.advance(1.0)
            runs.append((cluster.power_history().tolist(), job.rng.peek(), job.rows.tolist()))
        return runs

    def test_a_node_listed_twice_is_refused(self):
        refused, fresh = self._after_refusal(lambda n0, n1: [n0, n0])
        assert refused == fresh

    def test_a_node_list_of_another_width_is_refused(self):
        refused, fresh = self._after_refusal(lambda n0, n1: [n0])
        assert refused == fresh
        wide = self._after_refusal(lambda n0, n1: [n0, n1, n0])
        assert wide[0] == wide[1]

    def test_nodes_released_after_completion(self):
        cluster = EmulatedCluster(1, seed=0)
        cluster.start_job("j", NAS_TYPES["is"])
        while cluster.running:
            cluster.clock.advance(1.0)
            cluster.advance(1.0)
        assert len(cluster.idle_nodes()) == 1
        assert cluster.completed[0].job_id == "j"


class TestPowerRange:
    def test_cluster_band_matches_paper(self):
        """16 nodes span 2.24–4.48 kW — Fig. 9's target band."""
        cluster = EmulatedCluster(16, seed=0)
        assert cluster.min_cluster_power == pytest.approx(2240.0)
        assert cluster.max_cluster_power == pytest.approx(4480.0)

    def test_idle_cluster_power(self):
        cluster = EmulatedCluster(4, seed=0)
        cluster.clock.advance(1.0)
        power = cluster.advance(1.0)
        assert power == pytest.approx(4 * 60.0, rel=0.1)

    def test_power_history_accumulates(self):
        cluster = EmulatedCluster(2, seed=0)
        for _ in range(5):
            cluster.clock.advance(1.0)
            cluster.advance(1.0)
        hist = cluster.power_history()
        assert hist.shape == (5, 2)
        assert np.all(np.diff(hist[:, 0]) > 0)

    def test_measured_power_latest_tick(self):
        cluster = EmulatedCluster(2, seed=0)
        cluster.clock.advance(1.0)
        power = cluster.advance(1.0)
        assert cluster.measured_power == power


class TestVariation:
    def test_no_variation_by_default(self):
        cluster = EmulatedCluster(8, seed=0)
        assert all(n.perf_multiplier == 1.0 for n in cluster.nodes)

    def test_variation_draws_differ(self):
        cluster = EmulatedCluster(32, seed=0, perf_variation_std=0.1)
        mults = [n.perf_multiplier for n in cluster.nodes]
        assert np.std(mults) > 0.0
        assert np.mean(mults) == pytest.approx(1.0, abs=0.1)

    def test_variation_reproducible(self):
        a = EmulatedCluster(8, seed=9, perf_variation_std=0.2)
        b = EmulatedCluster(8, seed=9, perf_variation_std=0.2)
        assert [n.perf_multiplier for n in a.nodes] == [
            n.perf_multiplier for n in b.nodes
        ]

    def test_multiplier_floor(self):
        cluster = EmulatedCluster(200, seed=0, perf_variation_std=1.0)
        assert all(n.perf_multiplier >= 0.05 for n in cluster.nodes)


class TestAggregation:
    def test_totals_by_type(self):
        cluster = EmulatedCluster(2, seed=0)
        cluster.start_job("a", NAS_TYPES["is"])
        cluster.start_job("b", NAS_TYPES["is"])
        while cluster.running:
            cluster.clock.advance(1.0)
            cluster.advance(1.0)
        by_type = cluster.totals_by_type()
        assert len(by_type["is"]) == 2

    def test_invalid_size(self):
        with pytest.raises(ValueError, match="≥ 1"):
            EmulatedCluster(0)


# ---------------------------------------------------------------------------
# Window kernel ≡ scalar reference.  ``EmulatedCluster`` steps every rank and
# idle node across one tick (``advance``) or a run of them (``advance_stride``)
# in one array pass, static, power-wave and phased jobs alike;
# ``tests/hwsim_reference.py`` keeps the per-node, per-tick loop it replaced
# (``scalar_advance``: each job's tick and ``settle``, ``consume_idle``).  Two
# identically-seeded clusters, one stepped by each, must agree on every
# observable bit for bit — including the next value every RNG stream would
# draw, which is what a truncated window's rewind must leave exactly where
# the reference ticks left it.


def observables(cluster: EmulatedCluster, jobs) -> dict:
    return {
        "energy": [[b.total_energy_joules for b in n.banks] for n in cluster.nodes],
        "msr": [[b.read(MSR_PKG_ENERGY_STATUS) for b in n.banks] for n in cluster.nodes],
        "last_power": [n.last_power for n in cluster.nodes],
        "history": cluster.power_history().tolist(),
        "jobs": [
            (
                j.job_id,
                j.phase,
                j.phase_elapsed,
                j.profiler.rank_counts,
                j.profiler.epoch_times,
                j._compute_energy,
                j._compute_seconds,
            )
            for j in jobs
        ],
        "progress": {j.job_id: j._rank_progress.tolist() for j in cluster.running.values()},
        "running": list(cluster.running),
        "next_draw": [j.rng.peek() for j in jobs] + [s.peek() for s in node_streams(cluster)],
        "idle": [n.node_id for n in cluster.idle_nodes()],
        "completed": list(cluster.completed),
        "killed": list(cluster.killed),
    }


class Pair:
    """The same scenario on two clusters: fleet pass vs. scalar reference."""

    def __init__(self, num_nodes: int, **kwargs) -> None:
        self.fleet = EmulatedCluster(num_nodes, **kwargs)
        self.scalar = EmulatedCluster(num_nodes, **kwargs)
        self.jobs: tuple[list, list] = ([], [])

    def both(self, action) -> None:
        for cluster, jobs in zip((self.fleet, self.scalar), self.jobs):
            action(cluster, jobs)

    def start(self, job_id: str, job_type, cap: float | None = None) -> None:
        def action(cluster, jobs):
            job = cluster.start_job(job_id, job_type)
            jobs.append(job)
            if cap is not None:
                for node in job.nodes:
                    node.pio.write_control(ControlNames.CPU_POWER_LIMIT_CONTROL, cap)

        self.both(action)

    def tick(self, dt: float = 1.0) -> None:
        self.fleet.clock.advance(dt)
        self.scalar.clock.advance(dt)
        assert self.fleet.advance(dt) == scalar_advance(self.scalar, dt)

    def window(self, ticks: int, dt: float = 1.0) -> int:
        """One ``advance_stride`` over ``ticks`` instants against as many
        reference ticks as it ran; returns that number.

        A window may stop short of ``ticks`` (it is sized to the nearest
        foreseeable release) and runs jobs through setup→compute and
        compute→teardown turns, but never past a release: the tick a job
        leaves the cluster, included, is its last.
        """
        times = self.fleet.clock.tick_times(ticks, dt)
        ran, totals = self.fleet.advance_stride(times, dt)
        self.fleet.clock.advance_to(float(times[ran - 1]))
        assert 1 <= ran <= ticks
        reference, released = [], []
        for _ in range(ran):
            running = list(self.scalar.running)
            self.scalar.clock.advance(dt)
            reference.append(scalar_advance(self.scalar, dt))
            released.append(running != list(self.scalar.running))
        assert totals.tolist() == reference
        assert self.fleet.clock.now == self.scalar.clock.now
        assert not any(released[:-1])
        return ran

    def assert_equal(self) -> None:
        assert observables(self.fleet, self.jobs[0]) == observables(self.scalar, self.jobs[1])


def short_type(
    name: str, *, nodes: int, epochs: int, tau: float, setup_time=2.0, teardown_time=3.0,
    **changes,
):
    """A catalog type shrunk to ``epochs`` iterations of ``tau`` s uncapped."""
    return replace(
        NAS_TYPES[name], nodes=nodes, epochs=epochs, t_uncapped=epochs * tau,
        setup_time=setup_time, teardown_time=teardown_time, **changes,
    )


def phased_type(
    *, nodes: int, epochs: int, tau: float, setup_time=2.0, teardown_time=3.0, **changes,
):
    """``make_two_phase_type`` shrunk as :func:`short_type` shrinks a catalog type."""
    return replace(
        make_two_phase_type(nodes=nodes, epochs=epochs, t_uncapped=epochs * tau),
        setup_time=setup_time, teardown_time=teardown_time, **changes,
    )


# Phase timers: none, shorter than a tick, on a multiple of 0.7 (which the
# chain of 0.7 adds misses by an ulp), and anything else.
timers = st.one_of(st.sampled_from([0.0, 0.5, 1.4, 2.1, 3.0]), st.floats(0.0, 6.0))


job_specs = st.tuples(
    st.sampled_from(sorted(NAS_TYPES)),
    st.integers(1, 16),  # width
    st.integers(3, 12),  # epochs
    st.floats(0.4, 2.5),  # uncapped seconds per epoch
    st.sampled_from([140.0, 150.0, 200.0]),  # the type's p_min
    st.one_of(st.none(), st.floats(100.0, 320.0)),  # cap; None leaves TDP
    timers,  # setup seconds
    timers,  # teardown seconds
    st.one_of(st.just(0.0), st.floats(0.05, 0.5)),  # power wave
    st.booleans(),  # a two-phase type instead of the catalog one
    st.integers(0, 12),  # start tick
)


class TestFleetPassEqualsScalarReference:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        run_noise=st.booleans(),
        specs=st.lists(job_specs, min_size=1, max_size=6),
        slow=st.lists(st.tuples(st.integers(0, 39), st.floats(0.3, 1.5)), max_size=6),
        recap=st.tuples(st.integers(1, 30), st.floats(100.0, 320.0)),
        dt=st.sampled_from([1.0, 0.7]),  # 0.7: ``x * dt`` rounds, so its place matters
        window=st.integers(1, 40),  # ticks asked of each kernel call
    )
    @example(  # long windows: jobs run through setup→compute and compute→teardown
        seed=1, run_noise=True,
        specs=[("cg", 1, 3, 0.9, 140.0, None, 2.0, 3.0, 0.0, False, 0),
               ("bt", 3, 12, 1.3, 150.0, 200.0, 2.0, 3.0, 0.0, False, 0),
               ("mg", 2, 5, 0.6, 140.0, 250.0, 2.0, 3.0, 0.0, False, 4)],
        slow=[], recap=(30, 220.0), dt=1.0, window=40,
    )
    @example(  # timers of none, under a tick and on the 0.7 grid, turned inside windows
        seed=3, run_noise=True,
        specs=[("cg", 1, 3, 0.9, 140.0, None, 0.0, 0.0, 0.0, False, 0),
               ("lu", 2, 4, 0.8, 140.0, 200.0, 0.5, 2.1, 0.0, False, 0),
               ("mg", 2, 6, 0.6, 150.0, None, 2.1, 1.4, 0.0, False, 1)],
        slow=[], recap=(30, 220.0), dt=0.7, window=40,
    )
    @example(  # a slowed rank keeps one phased job's ranks in both phases for ticks
        seed=5, run_noise=True,
        specs=[("bt", 3, 12, 1.0, 140.0, None, 2.0, 3.0, 0.0, True, 0),
               ("ft", 2, 8, 1.1, 150.0, 230.0, 1.0, 2.0, 0.3, False, 0),
               ("lu", 2, 10, 0.9, 140.0, 200.0, 2.0, 3.0, 0.2, True, 3)],
        slow=[(1, 0.4)], recap=(20, 220.0), dt=1.0, window=40,
    )
    def test_random_mixes_step_to_completion(
        self, seed, run_noise, specs, slow, recap, dt, window
    ):
        pair = Pair(40, seed=seed, run_noise=run_noise, perf_variation_std=0.05)
        for node_id, mult in slow:  # tuned after construction, before start_job
            pair.both(lambda c, _: setattr(c.nodes[node_id], "perf_multiplier", mult))
        pending = sorted(enumerate(specs), key=lambda s: s[1][-1])
        tick = 0
        while tick < 600:
            while pending and pending[0][1][-1] <= tick:
                k, (name, width, epochs, tau, p_min, cap, setup, teardown, wave, phased, _) = (
                    pending.pop(0)
                )
                if len(pair.fleet.idle_nodes()) >= width:
                    shape = dict(
                        nodes=width, epochs=epochs, tau=tau, p_min=p_min,
                        setup_time=setup, teardown_time=teardown, power_wave=wave,
                    )
                    jt = phased_type(**shape) if phased else short_type(name, **shape)
                    pair.start(f"j{k}", jt, cap)
            if tick == recap[0]:  # a cluster-wide cap change mid-run
                pair.both(
                    lambda c, _: [
                        n.pio.write_control(ControlNames.CPU_POWER_LIMIT_CONTROL, recap[1])
                        for n in c.nodes
                    ]
                )
            # Inputs only change between kernel calls: a window stops short
            # of the next job start and of the cap change.
            due = [spec[-1] for _, spec in pending] + [recap[0]]
            ask = min([window] + [t - tick for t in due if t > tick])
            if ask == 1:
                pair.tick(dt)  # the one-tick entry point
                tick += 1
            else:
                tick += pair.window(ask, dt)
            pair.assert_equal()
            if not pending and not pair.fleet.running:
                break
        assert not pair.fleet.running and not pair.scalar.running

    def test_static_wave_and_phased_jobs_share_a_tick(self):
        pair = Pair(8, seed=5)
        pair.start("static", short_type("bt", nodes=2, epochs=20, tau=1.3), cap=210.0)
        pair.start("wave", short_type("ft", nodes=2, epochs=20, tau=1.1, power_wave=0.2))
        pair.start("phased", phased_type(nodes=2, epochs=20, tau=1.2), cap=180.0)
        assert not pair.fleet.stride_ready()
        while pair.fleet.running:
            pair.tick()
            pair.assert_equal()
        assert [t.epoch_count for t in pair.fleet.completed] == [20, 20, 20]

    def test_fail_node_mid_compute(self):
        pair = Pair(6, seed=11)
        pair.start("victim", short_type("bt", nodes=3, epochs=30, tau=1.0))
        pair.start("bystander", short_type("lu", nodes=2, epochs=30, tau=1.0))
        for _ in range(8):
            pair.tick()
        pair.both(lambda c, _: c.fail_node(1))
        assert pair.fleet.killed == [(8.0, "victim")]
        for _ in range(5):
            pair.tick()  # node 1 draws nothing; nodes 0 and 2 idle again
        assert pair.fleet.nodes[1].last_power == 0.0
        pair.both(lambda c, _: c.restore_node(1))
        pair.start("again", short_type("mg", nodes=4, epochs=10, tau=1.0))
        while pair.fleet.running:
            pair.tick()
        pair.assert_equal()

    def test_node_fail_under_a_live_job_raises(self):
        # Node.fail() behind the cluster's back: the cluster kills the job
        # first (fail_node), so a crashed node is always a free one.
        pair = Pair(4, seed=2)
        pair.start("j", short_type("sp", nodes=3, epochs=200, tau=1.0))
        for _ in range(5):
            pair.tick()
        with pytest.raises(RuntimeError, match="runs job 'j'"):
            pair.fleet.nodes[1].fail()
        assert not pair.fleet.nodes[1].failed and "j" in pair.fleet.running
        for _ in range(5):
            pair.tick()
        pair.assert_equal()

    def test_last_epoch_and_teardown_expiry_on_the_same_tick(self):
        # "a" finishes compute at t=6 and tears down for 3 s, so it is
        # released at t=9 — the tick "b" crosses its last epoch.
        pair = Pair(2, seed=3, run_noise=False)
        pair.start("a", short_type("cg", nodes=1, epochs=4, tau=0.9))
        pair.start("b", short_type("cg", nodes=1, epochs=6, tau=1.075))
        for _ in range(9):
            pair.tick()
            pair.assert_equal()
        job_b = pair.jobs[0][1]
        assert [t.job_id for t in pair.fleet.completed] == ["a"]
        assert pair.fleet.completed[0].sojourn == 9.0
        assert job_b.phase.name == "TEARDOWN" and job_b._compute_finished == 9.0
        assert [n.node_id for n in pair.fleet.idle_nodes()] == [0]
        while pair.fleet.running:
            pair.tick()
        pair.assert_equal()

    def test_scale_point_wide_jobs_on_fragmented_rows(self):
        # 256 nodes, as ``dr256_multirate``: many barriers rise on one tick,
        # and jobs up to 16 wide sum their power over rows that single-node
        # fillers of scattered lengths freed in no particular order.
        draw = np.random.default_rng(22)
        pair = Pair(256, seed=9, perf_variation_std=0.05)
        for i in range(256):
            filler = short_type("is", nodes=1, epochs=int(draw.integers(1, 9)), tau=1.0)
            pair.start(f"filler{i}", filler)
        names = sorted(NAS_TYPES)
        waiting = [
            (
                f"wide{k}",
                short_type(
                    names[k % len(names)],
                    nodes=int(draw.integers(1, 17)),
                    epochs=int(draw.integers(3, 9)),
                    tau=float(draw.uniform(0.4, 2.0)),
                ),
            )
            for k in range(110)
        ]
        calls = 0
        while waiting or pair.fleet.running:
            while waiting and len(pair.fleet.idle_nodes()) >= waiting[0][1].nodes:
                pair.start(*waiting.pop(0))
            if calls % 3:
                pair.window(4)
            else:
                pair.tick()
            pair.assert_equal()
            calls += 1
        wide = pair.jobs[0][256:]
        assert sum(len(j.nodes) > 8 for j in wide) > 20
        assert sum(max(np.diff([n.node_id for n in j.nodes]), default=1) > 1 for j in wide) > 20
        assert len(pair.fleet.completed) == 256 + 110


class TestReleasedJobKeepsItsLedger:
    """A job that left the cluster is still read — ``totals()`` right after
    the release, these observables whenever — while its rows, where the
    cluster's columns held its ledger, already serve the next job."""

    @staticmethod
    def _ledger(job) -> dict:
        return {
            "phase_elapsed": job.phase_elapsed,
            "compute_energy": job._compute_energy,
            "compute_seconds": job._compute_seconds,
            "rank_counts": job.profiler.rank_counts,
            "epoch_count": job.profiler.epoch_count,
            "epoch_times": job.profiler.epoch_times,
            "totals": job.totals() if job.is_done else None,
            "next_draw": job.rng.peek(),
        }

    @pytest.mark.parametrize("exit_by", ["done", "kill_job", "fail_node"])
    def test_rows_re_let_to_the_next_job(self, exit_by):
        pair = Pair(2, seed=6)
        pair.start("a", short_type("ft", nodes=2, epochs=5, tau=1.0))
        if exit_by == "done":
            while pair.fleet.running:
                pair.tick()
            assert [t.job_id for t in pair.fleet.completed] == ["a"]
        else:
            for _ in range(6):  # into compute: every cell has moved
                pair.tick()
            if exit_by == "kill_job":
                pair.both(lambda c, _: c.kill_job("a"))
            else:
                pair.both(lambda c, _: (c.fail_node(1), c.restore_node(1)))
            assert pair.fleet.killed == [(6.0, "a")]
        at_release = [self._ledger(jobs[0]) for jobs in pair.jobs]
        assert at_release[0] == at_release[1]
        assert at_release[0]["compute_seconds"] > 0 and any(at_release[0]["rank_counts"])
        pair.start("b", short_type("mg", nodes=2, epochs=40, tau=0.5))
        for _ in range(8):  # through setup, several ticks into compute
            pair.tick()
        for cluster, jobs, before in zip((pair.fleet, pair.scalar), pair.jobs, at_release):
            a, b = jobs
            assert [n.node_id for n in b.nodes] == [n.node_id for n in a.nodes] == [0, 1]
            # b's stream has a's row of the tape; a's stream left with its draws.
            assert b.rng.tape is cluster._tape and a.rng.tape is not cluster._tape
            assert b.phase.name == "COMPUTE" and b.profiler.epoch_count > 0
            assert self._ledger(a) == before
        pair.assert_equal()


    @pytest.mark.parametrize("exit_by", ["done", "kill_job"])
    def test_two_later_jobs_take_its_rows(self, exit_by):
        # A job beside it logs epochs throughout, so the epoch log holds the
        # released job's times for a while, then drops them as it fills.
        cluster = EmulatedCluster(3, seed=11)

        def tick():
            cluster.clock.advance(1.0)
            cluster.advance(1.0)
            cluster.agents.step(cluster.clock.now)

        cluster.start_job(
            "x", short_type("lu", nodes=1, epochs=900, tau=0.3), nodes=[cluster.nodes[2]]
        )
        a = cluster.start_job("a", short_type("ft", nodes=2, epochs=5, tau=1.0))
        a.endpoint.write_policy(AgentPolicy(power_cap_node=230.0))
        if exit_by == "done":
            while "a" in cluster.running:
                tick()
        else:
            for _ in range(6):  # into compute: every cell has moved
                tick()
            a.endpoint.write_policy(AgentPolicy(power_cap_node=210.0))  # still pending
            cluster.kill_job("a")

        def kept(job) -> dict:
            return {
                **self._ledger(job),
                "sample": job.endpoint.read_sample(),
                "pending": job.endpoint.has_pending_policy,
            }

        at_release = kept(a)
        assert at_release["sample"] is not None and len(at_release["epoch_times"]) > 0
        for later, epochs in (("b", 6), ("c", 40)):
            job = cluster.start_job(later, short_type("mg", nodes=2, epochs=epochs, tau=0.5))
            assert job.rows.tolist() == a.rows.tolist() == [0, 1]
            job.endpoint.write_policy(AgentPolicy(power_cap_node=180.0))
            while later in cluster.running and job.profiler.epoch_count < 10:
                tick()
            assert kept(a) == at_release
        assert [t.job_id for t in cluster.completed] == ["a", "b"][exit_by == "kill_job" :]
        assert kept(a) == at_release


def python_calls(action, event: str = "call") -> int:
    """Python-level calls ``action()`` makes (``event="c_call"``: calls of C
    functions).  The collector is off: a collection inside it could run an
    earlier test's finalizers."""
    calls = 0

    def count(frame, kind, arg):
        nonlocal calls
        calls += kind == event

    gc.disable()
    sys.setprofile(count)
    try:
        action()
    finally:
        sys.setprofile(None)
        gc.enable()
    return calls


class TestWorkPerWindow:
    """Counted, not timed: Python-level calls in a window do not grow with
    the number of jobs, and C calls do not either while no tape row is
    refilled and no barrier rises (every stream's draws are one gather; a
    risen barrier appends its job's timestamp)."""

    @staticmethod
    def _steady_tick(jobs: int, width: int, tau: float, event: str) -> tuple[int, bool]:
        """``event`` calls in one tick with every job computing, and whether
        a barrier rose in it."""
        cluster = EmulatedCluster(64 * width, seed=1)
        for k in range(jobs):
            cluster.start_job(f"j{k}", short_type("lu", nodes=width, epochs=400, tau=tau))
        for _ in range(6):  # all into compute, the layout built
            cluster.clock.advance(1.0)
            cluster.advance(1.0)
        phases = [job.phase for job in cluster.running.values()]
        assert {p.name for p in phases} == {"COMPUTE"}
        before = [job.profiler.epoch_count for job in cluster.running.values()]
        cluster.clock.advance(1.0)
        tape, refills = cluster._tape, []
        refill = tape._refill
        tape._refill = lambda rows, need: (refills.append(rows), refill(rows, need))
        calls = python_calls(lambda: cluster.advance(1.0), event)
        assert not refills  # every row held the window's draws: no generator ran
        assert phases == [job.phase for job in cluster.running.values()]
        return calls, before != [job.profiler.epoch_count for job in cluster.running.values()]

    def test_python_calls_do_not_grow_with_jobs(self):
        few, many = self._steady_tick(8, 1, 1.0, "call"), self._steady_tick(64, 1, 1.0, "call")
        assert few == many
        assert few[1]  # not an empty tick: ranks crossed epochs and barriers rose in it

    def test_c_calls_do_not_grow_with_jobs(self):
        # Two nodes a job: 120 streams (8 jobs, 112 idle nodes) against 64.
        few = self._steady_tick(8, 2, 100.0, "c_call")
        many = self._steady_tick(64, 2, 100.0, "c_call")
        assert few == many
        assert not few[1]  # epochs of 100 s: no barrier rose

    @staticmethod
    def _python_calls_of_a_turning_window(beside: int) -> int:
        cluster = EmulatedCluster(72, seed=2)
        # Started first, so their streams do not depend on ``beside``: one
        # job still in setup when the window opens, one near its last epoch.
        waking = cluster.start_job("waking", replace(
            short_type("mg", nodes=1, epochs=400, tau=1.0), setup_time=8.5,
        ))
        ending = cluster.start_job("ending", short_type("cg", nodes=1, epochs=6, tau=1.0))
        for k in range(beside):
            cluster.start_job(f"j{k}", short_type("lu", nodes=1, epochs=400, tau=1.0))
        for _ in range(6):
            cluster.clock.advance(1.0)
            cluster.advance(1.0)
        assert (waking.phase.name, ending.phase.name) == ("SETUP", "COMPUTE")
        times = cluster.clock.tick_times(4, 1.0)
        ran = 0

        def window():
            nonlocal ran
            ran, _ = cluster.advance_stride(times, 1.0)

        calls = python_calls(window)
        # Both turned inside the window, on ticks before its last.
        assert ran == 4
        assert waking._compute_started < times[-1] and ending._compute_finished < times[-1]
        assert (waking.phase.name, ending.phase.name) == ("COMPUTE", "TEARDOWN")
        return calls

    def test_a_turning_job_costs_python_and_a_steady_one_none(self):
        turning = self._python_calls_of_a_turning_window
        assert turning(8) == turning(64)


class TestWindows:
    """Cases the old tick/stride split hid: they only arise inside one call."""

    def test_last_epoch_and_teardown_expiry_end_the_same_window(self):
        # The scenario above, with t=7…14 asked for in one call: "a"'s
        # teardown timer and "b"'s last epoch both land on t=9, so the window
        # must stop there having made both transitions.
        pair = Pair(2, seed=3, run_noise=False)
        pair.start("a", short_type("cg", nodes=1, epochs=4, tau=0.9))
        pair.start("b", short_type("cg", nodes=1, epochs=6, tau=1.075))
        for _ in range(6):
            pair.tick()
        assert pair.window(8) == 3
        job_b = pair.jobs[0][1]
        assert [t.job_id for t in pair.fleet.completed] == ["a"]
        assert pair.fleet.completed[0].sojourn == 9.0
        assert job_b.phase.name == "TEARDOWN" and job_b._compute_finished == 9.0
        pair.assert_equal()
        while pair.fleet.running:
            pair.window(8)
        pair.assert_equal()

    def test_a_power_wave_job_holds_every_window_to_one_tick(self):
        pair = Pair(6, seed=7)
        pair.start("static", short_type("bt", nodes=2, epochs=12, tau=1.2), cap=200.0)
        pair.start("wave", short_type("ft", nodes=2, epochs=30, tau=1.1, power_wave=0.2))
        assert not pair.fleet.stride_ready()
        while "wave" in pair.fleet.running:
            assert pair.window(5) == 1  # the wave is looked up tick by tick
            pair.window(1)
            pair.assert_equal()
        assert [t.job_id for t in pair.fleet.completed] == ["static", "wave"]
        assert pair.fleet.stride_ready()  # its release lifted the rule

    def test_setup_to_compute_inside_a_window(self):
        pair = Pair(4, seed=17)
        pair.start("a", short_type("bt", nodes=2, epochs=60, tau=1.2), cap=210.0)
        assert pair.window(20) == 20  # through the turn at t=2
        job = pair.jobs[0][0]
        assert job.phase.name == "COMPUTE" and job._compute_started == 2.0
        assert job.profiler.epoch_count > 0
        pair.assert_equal()

    def test_compute_to_teardown_inside_a_window(self):
        # Run noise and per-tick jitter on: the turned job's stream is
        # rewound and redrawn quiet after its last epoch, every other stream
        # keeps its draws — ``assert_equal`` compares the next value of each.
        pair = Pair(6, seed=23, run_noise=True, perf_variation_std=0.05)
        pair.start("short", short_type("cg", nodes=2, epochs=4, tau=0.9))
        pair.start("long", short_type("ft", nodes=2, epochs=80, tau=1.1), cap=190.0)
        for _ in range(4):
            pair.tick()
        assert pair.window(4) == 4  # t=5…8: "short"'s turn inside, its release after
        short = pair.jobs[0][0]
        assert short.phase.name == "TEARDOWN"
        assert 5.0 <= short._compute_finished < 8.0
        pair.assert_equal()
        while pair.fleet.running:
            pair.window(40)
        pair.assert_equal()

    def test_a_compute_shorter_than_the_window_ends_it_at_the_second_turn(self):
        pair = Pair(4, seed=29, run_noise=False)
        pair.start("brief", short_type("is", nodes=1, epochs=2, tau=0.9))
        pair.start("long", short_type("sp", nodes=2, epochs=90, tau=1.0))
        ran = pair.window(30)
        brief = pair.jobs[0][0]
        assert brief._compute_started == 2.0  # first turn, inside
        assert brief.phase.name == "TEARDOWN" and brief._compute_finished == float(ran)
        assert ran < 30
        pair.assert_equal()

    def test_turns_inside_a_window_at_a_tick_that_rounds(self):
        # dt = 0.7: the setup timer expires on the third tick (2.1 s), and
        # phase_elapsed restarts from 0.0 there, a chain that rounds too.
        pair = Pair(5, seed=31, perf_variation_std=0.05)
        pair.start("a", short_type("lu", nodes=2, epochs=3, tau=0.8), cap=190.0)
        pair.start("b", short_type("mg", nodes=2, epochs=40, tau=0.8))
        assert pair.window(5, dt=0.7) == 5
        assert {j.phase.name for j in pair.jobs[0]} == {"COMPUTE"}
        pair.assert_equal()
        while pair.fleet.running:
            pair.window(12, dt=0.7)
            pair.assert_equal()
        assert len(pair.fleet.completed) == 2

    def test_windows_at_a_tick_that_rounds(self):
        # dt = 0.7: every ``x * dt`` and every running sum rounds, so a fold
        # taken in another order would show.
        pair = Pair(5, seed=13, perf_variation_std=0.05)
        pair.start("a", short_type("lu", nodes=2, epochs=9, tau=1.3), cap=190.0)
        pair.start("b", short_type("mg", nodes=2, epochs=14, tau=0.8))
        while pair.fleet.running:
            pair.window(6, dt=0.7)
            pair.assert_equal()
        assert len(pair.fleet.completed) == 2


class TestOneTickMasks:
    """A one-tick window reads the arrays only its layout and ``dt`` decide
    from the layout, built once per ``dt``, read-only."""

    @staticmethod
    def _computing() -> Pair:
        pair = Pair(8, seed=43, perf_variation_std=0.05)
        pair.start("a", short_type("bt", nodes=2, epochs=80, tau=1.2), cap=200.0)
        pair.start("b", short_type("sp", nodes=3, epochs=90, tau=1.0))
        for _ in range(4):  # both past setup: the layout holds from here
            pair.tick()
        return pair

    def test_one_tick_windows_between_longer_ones_on_the_same_layout(self):
        pair = self._computing()
        layout = pair.fleet._layout
        for ticks, dt in ((5, 1.0), (1, 1.0), (3, 1.0), (1, 1.0), (1, 0.7), (4, 0.7), (1, 0.7)):
            assert pair.window(ticks, dt) == ticks
            pair.assert_equal()
        assert pair.fleet._layout is layout
        assert set(layout.ticks) == {1.0, 0.7}

    def test_a_rebuilt_layout_starts_without_masks(self):
        pair = self._computing()
        layout = pair.fleet._layout
        assert set(layout.ticks) == {1.0}
        pair.start("c", short_type("cg", nodes=2, epochs=30, tau=0.9))
        rebuilt = pair.fleet._membership()
        assert rebuilt is not layout and rebuilt.ticks == {}
        pair.tick()
        live, need = rebuilt.ticks[1.0][0], rebuilt.ticks[1.0][-1]
        assert live is rebuilt.computes and need.shape == (4,)  # three jobs, one idle node
        assert layout.ticks[1.0][-1].shape == (5,)  # two jobs, three idle nodes
        pair.assert_equal()

    def test_a_cached_array_is_read_only(self):
        layout = self._computing().fleet._layout
        for array in layout.one_tick(1.0):
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[...] = 0


class TestValidationBeforeStateMoves:
    """Bad input raises before any stream or column has moved."""

    @staticmethod
    def _running() -> EmulatedCluster:
        cluster = EmulatedCluster(3, seed=4)
        cluster.start_job("j", short_type("bt", nodes=2, epochs=50, tau=1.0))
        return cluster

    @staticmethod
    def _state(cluster: EmulatedCluster) -> dict:
        job = cluster.running["j"]
        return {
            "progress": cluster.progress.tolist(),
            "energy": [n.total_energy for n in cluster.nodes],
            "phase_elapsed": job.phase_elapsed,
            "history": cluster.power_history().tolist(),
            "streams": [s.peek() for s in (job.rng, *node_streams(cluster))],
            "cursors": cluster._tape.head.tolist(),
        }

    @pytest.mark.parametrize(
        "times, dt, match",
        [
            ([1.0, 2.0], 0.0, "dt must be positive"),
            ([1.0, 2.0], -1.0, "dt must be positive"),
            ([], 1.0, "non-empty and increasing"),
            ([1.0, 3.0, 2.0], 1.0, "non-empty and increasing"),
            ([1.0, 1.0], 1.0, "non-empty and increasing"),
        ],
    )
    def test_bad_window_rejected(self, times, dt, match):
        cluster = self._running()
        for _ in range(4):  # into the compute phase: progress and streams moving
            cluster.clock.advance(1.0)
            cluster.advance(1.0)
        before = self._state(cluster)
        with pytest.raises(ValueError, match=match):
            cluster.advance_stride(np.array(times), dt)
        assert self._state(cluster) == before

    def test_bad_dt_rejected_by_the_one_tick_entry_point(self):
        cluster = self._running()
        before = self._state(cluster)
        with pytest.raises(ValueError, match="dt must be positive"):
            cluster.advance(0.0)
        assert self._state(cluster) == before

    def test_an_empty_cluster_checks_too(self):
        cluster = EmulatedCluster(2, seed=0)
        with pytest.raises(ValueError, match="dt must be positive"):
            cluster.advance_stride(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(ValueError, match="non-empty and increasing"):
            cluster.advance_stride(np.array([]), 1.0)
        assert cluster.power_history().size == 0

    @pytest.mark.parametrize("ticks", [1, 4])
    def test_negative_energy_rejected(self, ticks):
        # An idle node asked to draw negative watts: no tick may deposit it.
        # (The constructor refuses a negative idle power, so poke the array.)
        cluster = self._running()
        cluster.idle_watts[:] = -5.0
        before = self._state(cluster)
        with pytest.raises(ValueError, match="negative energy"):
            cluster.advance_stride(cluster.clock.tick_times(ticks, 1.0), 1.0)
        assert self._state(cluster) == before
