"""Tests for epoch profiling (geopm_prof_epoch semantics, paper §4.3)."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.geopm.profiler import EpochBatch, EpochLog, EpochProfiler


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


class TestBatchEntryEqualsRankCalls:
    """The window kernel raises every rank of every job at once
    (``EpochBatch``); the scalar reference calls ``prof_epoch`` /
    ``set_rank_progress`` rank by rank, tick-major.  Same counts, barriers
    and epoch timestamps either way."""

    @staticmethod
    def _shared(widths):
        """Profilers over one pair of columns and one epoch log, on
        interleaved rows, as the cluster builds them; and the batch over all
        of them."""
        total = sum(widths)
        log = EpochLog()
        counts = np.full(total, 7, dtype=np.int64)  # stale cells: a profiler claims its own
        barrier = np.full(total, 7, dtype=np.int64)
        order = np.random.default_rng(total).permutation(total)
        profilers, lo = [], 0
        for w in widths:
            rows = np.sort(order[lo : lo + w])
            profilers.append(
                EpochProfiler(w, cells=(counts, rows, barrier[rows[0] : rows[0] + 1], log))
            )
            lo += w
        rows = np.concatenate([p._rows for p in profilers])
        starts = np.cumsum([0] + widths[:-1])
        keys = np.array([p._key for p in profilers])
        return profilers, EpochBatch(counts, barrier, rows, starts, log, keys)

    @staticmethod
    def _state(profilers):
        return [(p.rank_counts, p.epoch_count, p.epoch_times) for p in profilers]

    @given(
        widths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_property_same_counts_barriers_and_stamps(self, widths, data):
        ranks = sum(widths)
        rises = data.draw(  # per tick, per rank: whole epochs gained
            st.lists(
                st.lists(st.integers(0, 3), min_size=ranks, max_size=ranks), max_size=12
            )
        )
        cuts = data.draw(st.lists(st.integers(1, 5), min_size=len(rises), max_size=len(rises)))
        one_by_one = data.draw(st.booleans())  # prof_epoch, else set_rank_progress
        alone = [EpochProfiler(w) for w in widths]
        shared, batch = self._shared(widths)
        owner = [(p, r) for p in alone for r in range(p.num_ranks)]
        totals = np.zeros(ranks, dtype=np.int64)
        tick = 0
        while tick < len(rises):
            window = rises[tick : tick + cuts[tick]]
            times = [float(tick + k + 1) for k in range(len(window))]
            for row, now in zip(window, times):  # tick-major, rank ascending
                for (p, r), gain in zip(owner, row):
                    if one_by_one:
                        for _ in range(gain):
                            p.prof_epoch(r, timestamp=now)
                    elif gain:
                        p.set_rank_progress(r, p.rank_count(r) + gain, timestamp=now)
            after = totals + np.cumsum(window, axis=0)
            batch.record(*batch.preview(after), np.array(times))
            totals = after[-1]
            tick += len(window)
            assert self._state(shared) == self._state(alone)
        assert [p.epoch_count for p in shared] == [min(p.rank_counts) for p in shared]

    @given(
        widths=st.lists(st.integers(1, 4), min_size=1, max_size=4),
        data=st.data(),
    )
    def test_property_a_falling_count_raises_before_anything_moves(self, widths, data):
        ranks = sum(widths)
        start = data.draw(st.lists(st.integers(1, 5), min_size=ranks, max_size=ranks))
        victim = data.draw(st.integers(0, ranks - 1))
        ticks = data.draw(st.integers(1, 4))
        fall_at = data.draw(st.integers(0, ticks - 1))
        alone = [EpochProfiler(w) for w in widths]
        shared, batch = self._shared(widths)
        owner = [(p, r) for p in alone for r in range(p.num_ranks)]
        for (p, r), count in zip(owner, start):
            p.set_rank_progress(r, count, timestamp=1.0)
        batch.record(*batch.preview(np.array([start])), np.array([1.0]))
        before = self._state(shared)
        assert before == self._state(alone)
        # Every rank gains an epoch a tick; the victim loses one on ``fall_at``.
        after = np.array(start) + np.arange(1, ticks + 1)[:, None]
        after[fall_at:, victim] = np.vstack([start, after])[fall_at, victim] - 1
        with pytest.raises(ValueError, match="went backwards"):
            batch.record(*batch.preview(after), np.arange(2.0, ticks + 2))
        assert self._state(shared) == before
        p, r = owner[victim]
        with pytest.raises(ValueError, match="went backwards"):
            p.set_rank_progress(r, start[victim] - 1, timestamp=2.0)
        assert self._state(alone) == before


class TestEpochLog:
    """Every job's epoch times in one log: a closed key's entries go once
    they are half the log or the log is full, and an open key's stay, in
    order."""

    def test_closed_keys_are_dropped_and_open_ones_kept(self):
        log = EpochLog(4)
        keys = [log.open() for _ in range(3)]
        expect = {k: [] for k in keys}
        for t in range(40):
            key = keys[t % 3]
            log.append(np.array([key]), np.array([float(t)]))
            expect[key].append(float(t))
        handed = {}

        class Keeper:
            def __init__(self, key):
                self.key = key

            def keep(self, stamps):
                handed[self.key] = stamps.tolist()

        keepers = {key: Keeper(key) for key in keys}
        for key in (keys[1], keys[0]):
            log.close(key, len(expect[key]), keepers[key].keep)
            if key == keys[1]:  # a third of the log: kept for now, and read there
                assert log.times(keys[1]).tolist() == expect[keys[1]]
                assert log._size == 40 and not handed
        # Two thirds closed: dropped, and each key's stamps handed over.
        assert handed == {keys[0]: expect[keys[0]], keys[1]: expect[keys[1]]}
        assert log._size == len(expect[keys[2]])
        assert log.times(keys[2]).tolist() == expect[keys[2]]
        fresh = log.open()
        log.append(np.full(500, fresh), np.arange(500.0))  # grows past capacity
        assert log.times(fresh).tolist() == list(np.arange(500.0))
        assert log.times(keys[2]).tolist() == expect[keys[2]]
        # A keeper no one holds any more when the log drops its key's
        # stamps is handed nothing.
        gone = log.open()
        log.append(np.full(3, gone), np.arange(3.0))
        log.close(gone, 3, Keeper(gone).keep)  # a sliver of the log: kept
        log.close(fresh, 500, Keeper(fresh).keep)  # most of it: both dropped
        assert gone not in handed and handed[fresh] == list(np.arange(500.0))
        assert log._size == len(expect[keys[2]])

    def test_detached_profiler_keeps_its_epoch_times(self):
        log = EpochLog()
        counts, barrier = np.zeros(4, dtype=np.int64), np.zeros(4, dtype=np.int64)
        a = EpochProfiler(2, cells=(counts, np.array([0, 1]), barrier[0:1], log))
        b = EpochProfiler(2, cells=(counts, np.array([2, 3]), barrier[2:3], log))
        for t in range(1, 4):
            for p in (a, b):
                p.set_rank_progress(0, t, timestamp=float(t))
                p.set_rank_progress(1, t, timestamp=float(t) + 0.5)
        a.detach()
        b.set_rank_progress(0, 4, timestamp=9.0)
        b.set_rank_progress(1, 4, timestamp=9.5)
        assert a.epoch_times == (1.5, 2.5, 3.5)
        assert b.epoch_times == (1.5, 2.5, 3.5, 9.5)
        assert a.seconds_per_epoch() == 1.0
