"""Tests for the FCFS and EASY-backfill schedulers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.framework import AnorConfig, AnorSystem
from repro.core.targets import ConstantTarget
from repro.sched.backfill import EasyBackfillScheduler
from repro.sched.base import PendingJob, RunningView
from repro.sched.fcfs import FcfsScheduler


def pj(job_id, nodes, est=100.0, submit=0.0):
    return PendingJob(job_id=job_id, nodes=nodes, submit_time=submit, est_runtime=est)


def rv(job_id, nodes, est_end):
    return RunningView(job_id=job_id, nodes=nodes, est_end=est_end)


class TestValidation:
    def test_pending_validates(self):
        with pytest.raises(ValueError, match="≥ 1"):
            pj("a", 0)
        with pytest.raises(ValueError, match="positive"):
            pj("a", 1, est=0.0)

    def test_running_validates(self):
        with pytest.raises(ValueError, match="≥ 1"):
            rv("a", 0, 10.0)

    def test_negative_idle_rejected(self):
        with pytest.raises(ValueError, match="≥ 0"):
            FcfsScheduler().select([], [], -1, 0.0)


class TestFcfs:
    def test_starts_in_order_while_fitting(self):
        chosen = FcfsScheduler().select([pj("a", 2), pj("b", 3)], [], 5, 0.0)
        assert [j.job_id for j in chosen] == ["a", "b"]

    def test_head_blocks_queue(self):
        chosen = FcfsScheduler().select([pj("a", 8), pj("b", 1)], [], 4, 0.0)
        assert chosen == []  # b may not pass a

    def test_partial_start(self):
        chosen = FcfsScheduler().select(
            [pj("a", 2), pj("b", 4), pj("c", 1)], [], 5, 0.0
        )
        assert [j.job_id for j in chosen] == ["a"]  # b blocks c

    @given(
        widths=st.lists(st.integers(1, 16), min_size=1, max_size=12),
        gaps=st.lists(st.floats(0.0, 50.0), min_size=12, max_size=12),
        cut=st.integers(1, 12),
        idle=st.integers(0, 20),
    )
    @settings(max_examples=200)
    def test_a_declined_queue_declines_any_tail(self, widths, gaps, cut, idle):
        """The ``time_invariant`` rule the window's arrival screen rests on:
        an empty decision on a queue stays empty whatever sorts in behind it."""
        submits = np.cumsum(gaps[: len(widths)])
        jobs = [pj(f"j{k}", w, submit=float(s)) for k, (w, s) in enumerate(zip(widths, submits))]
        queue, tail = jobs[:cut], jobs[cut:]
        scheduler = FcfsScheduler()
        assert scheduler.time_invariant
        if scheduler.select(queue, [], idle, 0.0) == []:
            assert scheduler.select(queue + tail, [], idle, 0.0) == []


class TestEasyBackfill:
    def test_behaves_like_fcfs_when_everything_fits(self):
        pending = [pj("a", 2), pj("b", 3)]
        chosen = EasyBackfillScheduler().select(pending, [], 5, 0.0)
        assert [j.job_id for j in chosen] == ["a", "b"]

    def test_short_job_backfills_past_wide_head(self):
        # Head needs 8 nodes: 4 idle + 4 released at t=100.
        running = [rv("r", 4, est_end=100.0)]
        pending = [pj("wide", 8, est=500.0), pj("short", 2, est=50.0)]
        chosen = EasyBackfillScheduler().select(pending, running, 4, 0.0)
        assert [j.job_id for j in chosen] == ["short"]

    def test_long_job_cannot_delay_reservation(self):
        running = [rv("r", 4, est_end=100.0)]
        pending = [pj("wide", 8, est=500.0), pj("long", 2, est=400.0)]
        # "long" would still hold 2 of the nodes the head needs at t=100.
        chosen = EasyBackfillScheduler().select(pending, running, 4, 0.0)
        assert chosen == []

    def test_long_job_may_use_extra_nodes(self):
        # Head needs 5: at t=100 it gets 4 idle + 4 released = 8, leaving 3
        # extra nodes a long job can hold without delaying the reservation.
        running = [rv("r", 4, est_end=100.0)]
        pending = [pj("head", 5, est=500.0), pj("long", 3, est=400.0)]
        chosen = EasyBackfillScheduler().select(pending, running, 4, 0.0)
        assert [j.job_id for j in chosen] == ["long"]

    def test_extra_nodes_not_double_spent(self):
        running = [rv("r", 4, est_end=100.0)]
        pending = [
            pj("head", 5, est=500.0),
            pj("long1", 3, est=400.0),
            pj("long2", 1, est=400.0),
        ]
        chosen = EasyBackfillScheduler().select(pending, running, 4, 0.0)
        # Only 3 extra nodes exist: long1 takes them; long2 must wait.
        assert [j.job_id for j in chosen] == ["long1"]

    def test_impossible_head_blocks_backfill(self):
        # The head wants more nodes than the cluster has.
        pending = [pj("huge", 100, est=10.0), pj("small", 1, est=10.0)]
        chosen = EasyBackfillScheduler().select(pending, [rv("r", 2, 50.0)], 2, 0.0)
        assert chosen == []

    def test_backfill_after_started_jobs(self):
        # a starts normally; b blocks; c backfills before a+running release.
        running = [rv("r", 5, est_end=200.0)]
        pending = [pj("a", 3, est=50.0), pj("b", 7, est=100.0), pj("c", 2, est=20.0)]
        chosen = EasyBackfillScheduler().select(pending, running, 5, 0.0)
        assert [j.job_id for j in chosen] == ["a", "c"]

    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.floats(10.0, 500.0)),
            min_size=1,
            max_size=12,
        ),
        st.integers(0, 16),
    )
    @settings(max_examples=60)
    def test_property_never_oversubscribes(self, specs, idle):
        pending = [pj(f"j{i}", n, est=e) for i, (n, e) in enumerate(specs)]
        chosen = EasyBackfillScheduler().select(pending, [], idle, 0.0)
        assert sum(j.nodes for j in chosen) <= idle
        ids = [j.job_id for j in chosen]
        assert len(ids) == len(set(ids))

    @given(
        st.lists(
            st.tuples(st.integers(1, 8), st.floats(10.0, 500.0)),
            min_size=2,
            max_size=12,
        ),
        st.integers(1, 16),
    )
    @settings(max_examples=60)
    def test_property_head_priority_preserved(self, specs, idle):
        """If the head does not start, nothing that would delay it starts:
        re-running the reservation after backfills must give the same time."""
        scheduler = EasyBackfillScheduler()
        pending = [pj(f"j{i}", n, est=e) for i, (n, e) in enumerate(specs)]
        running = [rv("r", 4, est_end=120.0)]
        chosen = scheduler.select(pending, running, idle, 0.0)
        started = {j.job_id for j in chosen}
        if pending[0].job_id in started:
            return
        head = pending[0]
        before, _ = EasyBackfillScheduler._reservation(head, running, idle, 0.0)
        live_after = running + [
            RunningView(j.job_id, j.nodes, 0.0 + j.est_runtime) for j in chosen
        ]
        idle_after = idle - sum(j.nodes for j in chosen)
        after, _ = EasyBackfillScheduler._reservation(head, live_after, idle_after, 0.0)
        assert after <= before + 1e-9


class TestFrameworkIntegration:
    def _system(self, scheduler):
        return AnorSystem(
            budgeter=EvenSlowdownBudgeter(),
            target_source=ConstantTarget(4 * 280.0),
            scheduler=scheduler,
            config=AnorConfig(num_nodes=4, seed=0, feedback_enabled=False),
        )

    def test_backfill_reduces_short_job_wait(self):
        waits = {}
        for name, scheduler in (
            ("fcfs", FcfsScheduler()),
            ("easy", EasyBackfillScheduler()),
        ):
            system = self._system(scheduler)
            system.submit_now("long-0", "lu", nodes=3)  # holds 3 of 4 nodes
            system.submit_now("wide-1", "ft")  # needs 2: blocked head
            system.submit_now("tiny-2", "is")  # 1 node, short
            result = system.run(until_idle=True, max_time=7200.0)
            tiny = [t for t in result.completed if t.job_id == "tiny-2"][0]
            waits[name] = tiny.sojourn - tiny.runtime
        assert waits["easy"] < waits["fcfs"]

    def test_backfill_completes_all_jobs(self):
        system = self._system(EasyBackfillScheduler())
        for i, t in enumerate(["lu", "ft", "is", "mg", "cg"]):
            system.submit_now(f"{t}-{i}", t, nodes=1)
        result = system.run(until_idle=True, max_time=7200.0)
        assert len(result.completed) == 5
