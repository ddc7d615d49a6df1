"""Tests for epoch profiling (geopm_prof_epoch semantics, paper §4.3)."""

import pytest
from hypothesis import given, strategies as st

from repro.geopm.profiler import EpochProfiler


class TestBarrierSemantics:
    def test_single_rank_counts_directly(self):
        p = EpochProfiler(num_ranks=1)
        assert p.prof_epoch(0) == 1
        assert p.prof_epoch(0) == 2

    def test_global_count_waits_for_slowest(self):
        """'incremented each time all processes ... reach' the call (§4.3)."""
        p = EpochProfiler(num_ranks=3)
        p.prof_epoch(0)
        p.prof_epoch(1)
        assert p.epoch_count == 0  # rank 2 has not arrived
        p.prof_epoch(2)
        assert p.epoch_count == 1

    def test_fast_rank_running_ahead(self):
        p = EpochProfiler(num_ranks=2)
        for _ in range(5):
            p.prof_epoch(0)
        assert p.epoch_count == 0
        p.prof_epoch(1)
        assert p.epoch_count == 1
        assert p.rank_counts == (5, 1)

    def test_rank_out_of_range(self):
        p = EpochProfiler(num_ranks=2)
        with pytest.raises(IndexError):
            p.prof_epoch(2)

    def test_zero_ranks_rejected(self):
        with pytest.raises(ValueError, match="≥ 1"):
            EpochProfiler(num_ranks=0)

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=60))
    def test_property_count_is_min_of_ranks(self, calls):
        p = EpochProfiler(num_ranks=3)
        for rank in calls:
            p.prof_epoch(rank)
        assert p.epoch_count == min(p.rank_counts)

    @given(
        st.lists(
            st.tuples(
                st.booleans(),  # prof_epoch, else set_rank_progress
                st.integers(0, 3),  # rank
                st.integers(0, 4),  # how far set_rank_progress raises the rank
                st.floats(0.0, 100.0),  # timestamp
            ),
            max_size=80,
        )
    )
    def test_property_running_minimum_tracks_the_ranks(self, calls):
        """``epoch_count`` is kept as a field, recomputed only when the rank
        being raised sat at the minimum: it must equal ``min(rank_counts)``
        after every call, and ``epoch_times`` must record each global epoch
        at the timestamp of the call that completed it."""
        p = EpochProfiler(num_ranks=4)
        counts = [0, 0, 0, 0]
        times: list[float] = []
        for use_prof, rank, jump, timestamp in calls:
            before = min(counts)
            if use_prof:
                counts[rank] += 1
                returned = p.prof_epoch(rank, timestamp=timestamp)
            else:
                counts[rank] += jump
                returned = p.set_rank_progress(rank, counts[rank], timestamp=timestamp)
            times += [timestamp] * (min(counts) - before)
            assert returned == p.epoch_count == min(p.rank_counts) == min(counts)
            assert p.rank_counts == tuple(counts)
        assert p.epoch_times == tuple(times)


class TestSetRankProgress:
    def test_direct_set(self):
        p = EpochProfiler(num_ranks=2)
        p.set_rank_progress(0, 4)
        p.set_rank_progress(1, 3)
        assert p.epoch_count == 3

    def test_cannot_go_backwards(self):
        p = EpochProfiler(num_ranks=1)
        p.set_rank_progress(0, 5)
        with pytest.raises(ValueError, match="backwards"):
            p.set_rank_progress(0, 4)

    def test_out_of_range_rank(self):
        with pytest.raises(IndexError):
            EpochProfiler(num_ranks=1).set_rank_progress(1, 1)


class TestEpochTimes:
    def test_timestamps_recorded_per_global_epoch(self):
        p = EpochProfiler(num_ranks=2)
        p.prof_epoch(0, timestamp=1.0)
        p.prof_epoch(1, timestamp=2.0)  # global epoch completes at t=2
        assert p.epoch_times == (2.0,)

    def test_multiple_epochs_at_once(self):
        p = EpochProfiler(num_ranks=2)
        p.set_rank_progress(0, 3, timestamp=1.0)
        p.set_rank_progress(1, 3, timestamp=4.0)
        assert p.epoch_times == (4.0, 4.0, 4.0)

    def test_seconds_per_epoch(self):
        p = EpochProfiler(num_ranks=1)
        for i in range(5):
            p.prof_epoch(0, timestamp=float(2 * i))
        assert p.seconds_per_epoch() == pytest.approx(2.0)

    def test_seconds_per_epoch_last_n(self):
        p = EpochProfiler(num_ranks=1)
        times = [0.0, 1.0, 2.0, 10.0, 18.0]
        for t in times:
            p.prof_epoch(0, timestamp=t)
        assert p.seconds_per_epoch(last_n=2) == pytest.approx(8.0)

    def test_seconds_per_epoch_needs_two(self):
        p = EpochProfiler(num_ranks=1)
        p.prof_epoch(0, timestamp=0.0)
        with pytest.raises(ValueError, match="two"):
            p.seconds_per_epoch()
