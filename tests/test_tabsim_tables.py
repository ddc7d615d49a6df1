"""Tests for the tabular simulator's state tables (paper §5.6)."""

import numpy as np
import pytest

from repro.tabsim.tables import JobState, JobTable, NodeTable, SimJobType
from repro.workloads.nas import IDLE_NODE_POWER, NAS_TYPES, P_NODE_MAX


class TestSimJobType:
    def test_from_job_type(self):
        sim = SimJobType.from_job_type(NAS_TYPES["bt"])
        assert sim.nodes == NAS_TYPES["bt"].nodes
        assert sim.t_at_p_max == pytest.approx(NAS_TYPES["bt"].t_uncapped)
        assert sim.t_at_p_min > sim.t_at_p_max

    def test_node_scale(self):
        sim = SimJobType.from_job_type(NAS_TYPES["bt"], node_scale=25)
        assert sim.nodes == NAS_TYPES["bt"].nodes * 25

    def test_linear_interpolation(self):
        sim = SimJobType("x", 1, 140.0, 280.0, t_at_p_max=100.0, t_at_p_min=200.0)
        assert sim.execution_time(210.0) == pytest.approx(150.0)

    def test_clamps_outside_range(self):
        sim = SimJobType("x", 1, 140.0, 280.0, t_at_p_max=100.0, t_at_p_min=200.0)
        assert sim.execution_time(100.0) == 200.0
        assert sim.execution_time(400.0) == 100.0

    def test_progress_rate_inverse_of_time(self):
        sim = SimJobType("x", 1, 140.0, 280.0, t_at_p_max=100.0, t_at_p_min=200.0)
        assert sim.progress_rate(280.0) == pytest.approx(0.01)

    def test_vectorized(self):
        sim = SimJobType("x", 1, 140.0, 280.0, t_at_p_max=100.0, t_at_p_min=200.0)
        caps = np.array([140.0, 210.0, 280.0])
        assert sim.execution_time(caps).tolist() == [200.0, 150.0, 100.0]

    def test_more_power_cannot_be_slower(self):
        with pytest.raises(ValueError, match="cannot be slower"):
            SimJobType("x", 1, 140.0, 280.0, t_at_p_max=200.0, t_at_p_min=100.0)

    def test_positive_node_count(self):
        with pytest.raises(ValueError, match="≥ 1"):
            SimJobType("x", 0, 140.0, 280.0, 100.0, 200.0)


class TestNodeTable:
    def test_all_idle_initially(self):
        table = NodeTable(10)
        assert table.idle_mask.all()
        assert table.idle_indices().size == 10

    def test_assign_and_release(self):
        table = NodeTable(4)
        table.assign(np.array([1, 2]), job_index=0)
        assert not table.idle_mask[1]
        assert table.job_idx[2] == 0
        table.release(0)
        assert table.idle_mask.all()

    def test_assign_busy_node_rejected(self):
        table = NodeTable(4)
        table.assign(np.array([0]), 0)
        with pytest.raises(RuntimeError, match="non-idle"):
            table.assign(np.array([0]), 1)

    def test_release_resets_progress_and_cap(self):
        table = NodeTable(2)
        table.assign(np.array([0]), 0)
        table.progress[0] = 0.5
        table.cap[0] = 150.0
        table.power[0] = 150.0
        table.release(0)
        assert table.progress[0] == 0.0
        assert table.cap[0] == P_NODE_MAX
        assert table.power[0] == IDLE_NODE_POWER

    def test_assign_marks_the_jobs_slowest_node(self):
        table = NodeTable(5)
        table.perf_mult[:] = [1.0, 0.9, 1.2, 0.7, 0.8]
        table.assign(np.array([0, 1, 2]), 0)
        table.assign(np.array([3, 4]), 1)
        assert table.slowest.tolist() == [False, True, False, True, False]
        table.release(0)
        assert table.slowest.tolist() == [False, False, False, True, False]

    def test_invalid_size(self):
        with pytest.raises(ValueError, match="≥ 1"):
            NodeTable(0)


class TestJobTable:
    def test_add_and_lifecycle(self):
        table = JobTable(num_types=2)
        i = table.add(1, nodes=4, submit_time=10.0)
        assert table.state[i] == JobState.QUEUED
        table.mark_started(i, 12.0)
        assert table.state[i] == JobState.RUNNING
        table.mark_done(i, 100.0)
        assert table.state[i] == JobState.DONE
        assert table.sojourn_times()[i] == pytest.approx(90.0)

    def test_grows_beyond_initial_capacity(self):
        table = JobTable(num_types=1)
        for k in range(1000):
            table.add(0, 1, float(k))
        assert table.count == 1000
        assert table.submit_time[999] == 999.0

    def test_growth_preserves_nan_sentinels(self):
        table = JobTable(num_types=1)
        for k in range(300):
            table.add(0, 1, float(k))
        assert np.isnan(table.start_time[299])

    def test_invalid_transitions(self):
        table = JobTable(num_types=1)
        i = table.add(0, 1, 0.0)
        with pytest.raises(RuntimeError, match="not running"):
            table.mark_done(i, 1.0)
        table.mark_started(i, 1.0)
        with pytest.raises(RuntimeError, match="not queued"):
            table.mark_started(i, 2.0)

    def test_type_index_validated(self):
        table = JobTable(num_types=2)
        with pytest.raises(IndexError):
            table.add(5, 1, 0.0)

    def test_completed_mask(self):
        table = JobTable(num_types=1)
        a = table.add(0, 1, 0.0)
        b = table.add(0, 1, 0.0)
        table.mark_started(a, 1.0)
        table.mark_done(a, 2.0)
        mask = table.completed_mask()
        assert mask[a] and not mask[b]

    def test_snapshot_copies(self):
        table = JobTable(num_types=1)
        table.add(0, 1, 0.0)
        snap = table.snapshot()
        snap["nodes"][0] = 99
        assert table.nodes[0] == 1
