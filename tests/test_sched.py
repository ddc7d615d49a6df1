"""Tests for the FCFS scheduler and the queue's intake checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import AnorConfig, AnorSystem
from repro.sched.fcfs import FcfsScheduler
from repro.workloads.trace import JobRequest, Schedule


def pj(job_id, nodes, submit=0.0):
    return JobRequest(submit_time=submit, job_id=job_id, type_name="bt", nodes=nodes)


class TestValidation:
    def test_pending_validates(self):
        with pytest.raises(ValueError, match="≥ 1"):
            pj("a", 0)

    def test_negative_idle_rejected(self):
        with pytest.raises(ValueError, match="≥ 0"):
            FcfsScheduler().select([], -1)

    def test_a_job_wider_than_the_cluster_is_refused_at_submission(self):
        """Under strict FCFS it would head the queue forever, so both entry
        points refuse it, naming the job and its width."""
        config = AnorConfig(num_nodes=4)
        system = AnorSystem(config=config)
        with pytest.raises(ValueError, match="wide.*8 nodes"):
            system.submit_now("wide", "bt", nodes=8)
        system.crash_node(0)  # a crashed node comes back: still within the limit
        system.submit_now("fits", "bt", nodes=4)
        schedule = Schedule([JobRequest(0.0, "wide", "bt", 8), JobRequest(0.0, "is-1", "is", 1)])
        with pytest.raises(ValueError, match="wide.*8 nodes"):
            AnorSystem(config=config, schedule=schedule)


class TestFcfs:
    def test_starts_in_order_while_fitting(self):
        chosen = FcfsScheduler().select([pj("a", 2), pj("b", 3)], 5)
        assert [j.job_id for j in chosen] == ["a", "b"]

    def test_head_blocks_queue(self):
        chosen = FcfsScheduler().select([pj("a", 8), pj("b", 1)], 4)
        assert chosen == []  # b may not pass a

    def test_partial_start(self):
        chosen = FcfsScheduler().select([pj("a", 2), pj("b", 4), pj("c", 1)], 5)
        assert [j.job_id for j in chosen] == ["a"]  # b blocks c

    @given(
        widths=st.lists(st.integers(1, 16), min_size=1, max_size=12),
        gaps=st.lists(st.floats(0.0, 50.0), min_size=12, max_size=12),
        cut=st.integers(1, 12),
        idle=st.integers(0, 20),
    )
    @settings(max_examples=200)
    def test_a_declined_queue_declines_any_tail(self, widths, gaps, cut, idle):
        """The head-blocks rule the window's queue and arrival screens rest
        on: an empty decision on a queue stays empty whatever sorts in behind
        it."""
        submits = np.cumsum(gaps[: len(widths)])
        jobs = [pj(f"j{k}", w, submit=float(s)) for k, (w, s) in enumerate(zip(widths, submits))]
        queue, tail = jobs[:cut], jobs[cut:]
        scheduler = FcfsScheduler()
        if scheduler.select(queue, idle) == []:
            assert scheduler.select(queue + tail, idle) == []


class TestQueueOrder:
    def test_a_requeue_rejoins_the_head_and_equal_times_keep_arrival_order(self):
        """The queue is kept in FCFS order as jobs join it: a job requeued
        after a node crash keeps its submit time and goes back to the head of
        the line, and among equal submit times the earlier arrival stays
        first — a stable sort of the order jobs joined in."""
        schedule = Schedule([
            JobRequest(0.0, "a", "bt", 2),
            JobRequest(5.0, "b", "is", 2),
            JobRequest(5.0, "c", "cg", 2),
        ])
        system = AnorSystem(config=AnorConfig(num_nodes=2), schedule=schedule)
        while system.cluster.clock.now < 10.0:
            system.step()
        system.submit_now("d", "ep", nodes=2)
        assert system.crash_node(0) == "a"  # requeued with its submit time, 0 s
        system.submit_now("e", "is", nodes=2)
        by_id = {req.job_id: req for req in system._queue}
        joined = [by_id[job_id] for job_id in "bcdae"]
        assert system._queue == sorted(joined, key=lambda req: req.submit_time)
        assert [req.job_id for req in system._queue] == list("abcde")
        system.cluster.restore_node(0)
        result = system.run(until_idle=True, max_time=5000.0)
        # Each job takes the whole cluster, so jobs finish in launch order.
        assert [t.job_id for t in result.completed] == list("abcde")
