"""Tests for work queues and the weight-proportional scheduler (§4.4.2)."""

import pytest

from repro.aqa.queues import QueueSet, WorkQueue
from repro.aqa.scheduler import WeightedScheduler
from repro.workloads.trace import JobRequest


def qj(job_id, type_name, nodes=1, submit=0.0):
    return JobRequest(submit_time=submit, job_id=job_id, type_name=type_name, nodes=nodes)


class TestWorkQueue:
    def test_fifo(self):
        q = WorkQueue("bt")
        q.push(qj("a", "bt"))
        q.push(qj("b", "bt"))
        assert q.pop().job_id == "a"
        assert q.peek().job_id == "b"

    def test_wrong_type_rejected(self):
        q = WorkQueue("bt")
        with pytest.raises(ValueError, match="pushed to queue"):
            q.push(qj("a", "sp"))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="≥ 0"):
            WorkQueue("bt", weight=-1.0)

    def test_empty_peek(self):
        assert WorkQueue("bt").peek() is None


class TestQueueSet:
    def test_submit_routes_by_type(self):
        qs = QueueSet([WorkQueue("bt"), WorkQueue("sp")])
        qs.submit(qj("a", "sp"))
        assert len(qs["sp"]) == 1
        assert len(qs["bt"]) == 0

    def test_unknown_type_rejected(self):
        qs = QueueSet([WorkQueue("bt")])
        with pytest.raises(KeyError, match="no queue"):
            qs.submit(qj("a", "xx"))

    def test_node_shares_proportional(self):
        qs = QueueSet([WorkQueue("a", weight=3.0), WorkQueue("b", weight=1.0)])
        shares = qs.node_shares(100)
        assert shares["a"] == pytest.approx(75.0)
        assert shares["b"] == pytest.approx(25.0)

    def test_all_zero_weights_degrade_to_equal(self):
        qs = QueueSet([WorkQueue("a", weight=0.0), WorkQueue("b", weight=0.0)])
        shares = qs.node_shares(10)
        assert shares["a"] == shares["b"] == 5.0

    def test_set_weights(self):
        qs = QueueSet([WorkQueue("a"), WorkQueue("b")])
        qs.set_weights({"a": 2.0})
        assert qs["a"].weight == 2.0

    def test_set_weights_validates(self):
        qs = QueueSet([WorkQueue("a")])
        with pytest.raises(KeyError):
            qs.set_weights({"zz": 1.0})
        with pytest.raises(ValueError, match="≥ 0"):
            qs.set_weights({"a": -1.0})

    def test_total_pending(self):
        qs = QueueSet([WorkQueue("a"), WorkQueue("b")])
        qs.submit(qj("x", "a"))
        qs.submit(qj("y", "b"))
        assert qs.total_pending == 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            QueueSet([])


class TestWeightedScheduler:
    def test_starts_within_share(self):
        qs = QueueSet([WorkQueue("a", weight=1.0), WorkQueue("b", weight=1.0)])
        qs.submit(qj("a1", "a", nodes=4))
        qs.submit(qj("b1", "b", nodes=4))
        sched = WeightedScheduler(qs)
        decision = sched.schedule(idle_nodes=8)
        started = {j.job_id for j in decision.to_start}
        assert started == {"a1", "b1"}
        assert decision.idle_nodes_after == 0

    def test_share_limits_hungry_queue(self):
        """A queue cannot exceed its weight share even with idle nodes."""
        qs = QueueSet([WorkQueue("a", weight=1.0), WorkQueue("b", weight=1.0)])
        for i in range(4):
            qs.submit(qj(f"a{i}", "a", nodes=4))
        sched = WeightedScheduler(qs)
        decision = sched.schedule(idle_nodes=8)
        # Share of queue a = 4 nodes: only one 4-node job may start.
        assert len(decision.to_start) == 1
        assert decision.idle_nodes_after == 4

    def test_work_conserving_lends_spare_share(self):
        qs = QueueSet([WorkQueue("a", weight=1.0), WorkQueue("b", weight=1.0)])
        for i in range(4):
            qs.submit(qj(f"a{i}", "a", nodes=4, submit=float(i)))
        sched = WeightedScheduler(qs, work_conserving=True)
        decision = sched.schedule(idle_nodes=8)
        assert len(decision.to_start) == 2

    def test_heavier_queue_gets_more(self):
        qs = QueueSet([WorkQueue("a", weight=3.0), WorkQueue("b", weight=1.0)])
        for i in range(3):
            qs.submit(qj(f"a{i}", "a", nodes=2))
            qs.submit(qj(f"b{i}", "b", nodes=2))
        decision = WeightedScheduler(qs).schedule(idle_nodes=8)
        starts = [j.type_name for j in decision.to_start]
        assert starts.count("a") == 3
        assert starts.count("b") == 1

    def test_set_weights_moves_shares_and_pick_order_on_the_next_call(self):
        """Shares and pick order are kept between calls, but only while every
        weight and the node total they were computed for stand."""
        qs = QueueSet([WorkQueue("a", weight=3.0), WorkQueue("b", weight=1.0)])
        for i in range(4):
            qs.submit(qj(f"a{i}", "a", nodes=2))
            qs.submit(qj(f"b{i}", "b", nodes=2))
        sched = WeightedScheduler(qs)
        # Shares 6 / 2 of 8 nodes, a picks first.
        first = sched.schedule(idle_nodes=8)
        assert [j.job_id for j in first.to_start] == ["a0", "b0", "a1", "a2"]
        sched.job_finished("a", 6)
        sched.job_finished("b", 2)
        qs.set_weights({"a": 1.0, "b": 3.0})
        # Same 8 nodes: shares 2 / 6 now, and b picks first.
        second = sched.schedule(idle_nodes=8)
        assert [j.job_id for j in second.to_start] == ["b1", "a3", "b2", "b3"]

    def test_shares_follow_the_node_total(self):
        qs = QueueSet([WorkQueue("a", weight=1.0), WorkQueue("b", weight=1.0)])
        for i in range(3):
            qs.submit(qj(f"a{i}", "a", nodes=4))
        sched = WeightedScheduler(qs)
        assert len(sched.schedule(idle_nodes=8).to_start) == 1  # share 4 of 8
        # 4 running + 12 idle: a's share is 8 of 16, room for one more.
        assert [j.job_id for j in sched.schedule(idle_nodes=12).to_start] == ["a1"]

    def test_job_larger_than_free_nodes_waits(self):
        qs = QueueSet([WorkQueue("a", weight=1.0)])
        qs.submit(qj("a1", "a", nodes=10))
        decision = WeightedScheduler(qs).schedule(idle_nodes=4)
        assert decision.to_start == []

    def test_finish_releases_share(self):
        qs = QueueSet([WorkQueue("a", weight=1.0), WorkQueue("b", weight=1.0)])
        qs.submit(qj("a1", "a", nodes=4))
        sched = WeightedScheduler(qs)
        sched.schedule(idle_nodes=8)
        assert qs["a"].running_nodes == 4
        sched.job_finished("a", 4)
        assert qs["a"].running_nodes == 0

    def test_finish_underflow_rejected(self):
        qs = QueueSet([WorkQueue("a")])
        with pytest.raises(ValueError, match="releasing"):
            WeightedScheduler(qs).job_finished("a", 1)

    def test_negative_idle_rejected(self):
        qs = QueueSet([WorkQueue("a")])
        with pytest.raises(ValueError, match="≥ 0"):
            WeightedScheduler(qs).schedule(-1)
