"""Tests for the FCFS scheduler and the queue's intake checks."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import AnorConfig, AnorSystem
from repro.sched.fcfs import FcfsScheduler, PendingJob
from repro.workloads.trace import JobRequest, Schedule


def pj(job_id, nodes, submit=0.0):
    return PendingJob(job_id=job_id, nodes=nodes, submit_time=submit)


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
