"""Application epoch instrumentation (``geopm_prof_epoch()``, paper §4.3/§5.1).

The paper inserts one ``geopm_prof_epoch()`` call per iteration of each
benchmark's main outer loop; the epoch count increments once **all**
processes across all nodes running the benchmark have reached the call.
:class:`EpochProfiler` reproduces that barrier semantics: each rank calls
:meth:`prof_epoch`, and the global count is the minimum per-rank count.
The hardware emulator drives every rank of every job across a window of
ticks through :class:`EpochBatch` (its window kernel); the per-node test
reference drives one rank at a time through
:meth:`EpochProfiler.set_rank_progress`.  Every job's epoch timestamps go to
one :class:`EpochLog`, which a profiler reads when asked.
"""

from __future__ import annotations

from typing import Callable
from weakref import WeakMethod

import numpy as np

__all__ = ["EpochBatch", "EpochLog", "EpochProfiler"]


class EpochLog:
    """Epoch timestamps of many profilers in one growing pair of arrays.

    An entry is a profiler's key and the time its job's barrier rose by one
    epoch; a profiler's entries, in log order, are its epoch times.  A
    closed key's entries are dropped once they are half the log, or when
    the arrays are full, and the arrays are then sized to twice what stays:
    the log holds about twice the stamps of its open keys.  Until then a
    closed key's stamps are read here as an open key's are; as they are
    dropped, each closed key's are handed, in one pass over the log, to the
    ``keep`` its :meth:`close` named.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._keys = np.empty(capacity, dtype=np.int32)
        self._times = np.empty(capacity)
        self._size = 0
        self._opened = 0
        self._open: set[int] = set()
        self._closed = 0  # entries of closed keys still held
        self._keepers: dict[int, WeakMethod] = {}  # of those keys, who takes their stamps

    def open(self, key: int | None = None) -> int:
        """Open ``key``, one not opened before (default: one past the
        largest so far)."""
        key = self._opened if key is None else int(key)
        if key < self._opened and key not in self._open:
            raise ValueError(f"epoch log key {key} was opened before")
        self._opened = max(self._opened, key + 1)
        self._open.add(key)
        return key

    def append(self, keys: np.ndarray, times: np.ndarray) -> None:
        """Add one stamp per ``(key, time)`` pair, in order."""
        end = self._size + len(keys)
        if end > self._keys.size:
            self._compact(len(keys))
            end = self._size + len(keys)
        self._keys[self._size : end] = keys
        self._times[self._size : end] = times
        self._size = end

    def times(self, key: int) -> np.ndarray:
        """``key``'s stamps, in the order they were appended."""
        n = self._size
        return self._times[:n][self._keys[:n] == key]

    def close(self, key: int, count: int, keep: Callable[[np.ndarray], None]) -> None:
        """Close ``key``, which holds ``count`` stamps: they stay readable
        through :meth:`times` until the log drops them, and are handed to
        ``keep`` then.  ``keep``, a bound method, is held weakly: once its
        object is gone, no one is left to read the stamps."""
        self._open.discard(key)
        if not count:
            return
        self._keepers[key] = WeakMethod(keep)
        self._closed += count
        if 2 * self._closed > self._size:
            self._compact(0)

    def _compact(self, more: int) -> None:
        """Drop closed keys' entries; room for ``more`` after what stays."""
        if self._keepers:
            self._hand_over()
        n = self._size
        alive = np.zeros(self._opened, dtype=bool)
        alive[list(self._open)] = True
        keep = alive[self._keys[:n]]
        size = int(np.count_nonzero(keep))
        capacity = max(2 * (size + more), 256)
        keys, times = np.empty(capacity, dtype=np.int32), np.empty(capacity)
        keys[:size], times[:size] = self._keys[:n][keep], self._times[:n][keep]
        self._keys, self._times, self._size, self._closed = keys, times, size, 0

    def _hand_over(self) -> None:
        """Give each closed key whose keeper is still held its stamps, in log
        order, before they are dropped: one stable sort of those keys'
        entries by the keys' places among the keepers, whose few values
        sort in linear time."""
        held = [(key, keep) for key, ref in self._keepers.items() if (keep := ref()) is not None]
        self._keepers.clear()
        if not held:
            return
        n, last = self._size, len(held)
        place = np.full(self._opened, last, dtype=np.min_scalar_type(last))
        place[[key for key, _ in held]] = np.arange(last)
        places = place[self._keys[:n]]
        theirs = (places < last).nonzero()[0]  # their entries, in log order
        places = places[theirs]
        times = self._times[theirs[np.argsort(places, kind="stable")]]
        ends = np.bincount(places, minlength=last).cumsum().tolist()
        lo = 0
        for (_, keep), hi in zip(held, ends):
            keep(times[lo:hi])
            lo = hi


class EpochProfiler:
    """Barrier-style epoch counter shared by all ranks of one job.

    ``cells`` is ``(counts, rows, barrier, log)``: a column of whole-epoch
    counts of which rank ``i`` owns entry ``rows[i]``, a one-element view of
    the job-global count, and the :class:`EpochLog` its epoch times go to.
    The emulated cluster passes its node-indexed columns and its log so one
    array pass can raise every job's ranks, and the job's start number as
    the ``key`` its times are logged under; a standalone profiler allocates
    its own.
    """

    def __init__(
        self,
        num_ranks: int,
        *,
        cells: tuple[np.ndarray, np.ndarray, np.ndarray, EpochLog] | None = None,
        key: int | None = None,
    ) -> None:
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be ≥ 1, got {num_ranks}")
        self.num_ranks = int(num_ranks)
        self._counts, self._rows, self._barrier, self._log = cells if cells is not None else (
            np.zeros(self.num_ranks, dtype=np.int64),
            np.arange(self.num_ranks),
            np.zeros(1, dtype=np.int64),
            EpochLog(),
        )
        self._counts[self._rows] = 0
        self._barrier[0] = 0  # min over the ranks' counts, kept as they are raised
        self._key = self._log.open(key)  # the completion time of each epoch is logged under it
        self._stamps: np.ndarray | None = None  # the times, once the log has handed them over

    def detach(self) -> None:
        """Copy the counts out of the shared columns and close the key (the
        job left the cluster; its rows may be re-let while its counts and
        times are still read).  A detached profiler is only read."""
        self._counts = self._counts[self._rows]
        self._rows = np.arange(self.num_ranks)
        self._barrier = self._barrier.copy()
        self._log.close(self._key, self.epoch_count, self._keep)

    def _keep(self, stamps: np.ndarray) -> None:
        """Hold the stamps the shared log drops (``EpochLog.close``)."""
        self._stamps = stamps

    def prof_epoch(self, rank: int, *, timestamp: float = 0.0) -> int:
        """Rank ``rank`` finished one more main-loop iteration.

        Returns the new global epoch count.  The global count only advances
        when the slowest rank reaches the call, mirroring GEOPM's
        all-processes semantics.
        """
        return self._raise(rank, self.rank_count(rank) + 1, timestamp)

    def set_rank_progress(self, rank: int, count: int, *, timestamp: float = 0.0) -> int:
        """Set a rank's cumulative epoch count directly (emulator fast path)."""
        before = self.rank_count(rank)
        if count < before:
            raise ValueError(f"rank {rank} epoch count went backwards: {before} -> {count}")
        return self._raise(rank, int(count), timestamp)

    def _raise(self, rank: int, count: int, timestamp: float) -> int:
        # The minimum can only move when the rank being raised sat at it.
        row = self._rows[rank]
        floor = self.epoch_count
        at_floor = self._counts[row] == floor
        self._counts[row] = count
        if at_floor:
            after = int(self._counts[self._rows].min())
            if after > floor:
                gained = after - floor
                self._log.append(np.full(gained, self._key), np.full(gained, float(timestamp)))
            self._barrier[0] = floor = after
        return floor

    @property
    def epoch_count(self) -> int:
        """Global epoch count: iterations completed by *every* rank."""
        return int(self._barrier[0])

    def rank_count(self, rank: int) -> int:
        """Iterations completed by one rank."""
        if not 0 <= rank < self.num_ranks:
            raise IndexError(f"rank {rank} out of range [0, {self.num_ranks})")
        return int(self._counts[self._rows[rank]])

    @property
    def rank_counts(self) -> tuple[int, ...]:
        return tuple(self._counts[self._rows].tolist())

    def _times(self) -> np.ndarray:
        return self._log.times(self._key) if self._stamps is None else self._stamps

    @property
    def epoch_times(self) -> tuple[float, ...]:
        """Timestamps at which each global epoch completed."""
        return tuple(self._times().tolist())

    def seconds_per_epoch(self, last_n: int | None = None) -> float:
        """Mean seconds between recent epoch completions (≥ 2 epochs needed)."""
        times = self._times().tolist()
        if last_n is not None:
            times = times[-last_n:]
        if len(times) < 2:
            raise ValueError("need at least two completed epochs")
        return (times[-1] - times[0]) / (len(times) - 1)


class EpochBatch:
    """Profilers that share one pair of columns and one log, raised together.

    The array twin of :meth:`EpochProfiler.set_rank_progress` for every rank
    of every job across a window of ticks: the same counts, barriers and
    epoch timestamps as the tick-major, rank-ascending calls, in array
    passes over the columns and one append to the log.  It holds index
    arrays into the columns, so it lives as long as the set of profilers
    does.
    """

    def __init__(
        self,
        counts: np.ndarray,
        barrier: np.ndarray,
        rows: np.ndarray,
        starts: np.ndarray,
        log: EpochLog,
        keys: np.ndarray,
    ) -> None:
        self._counts, self._barrier, self._log, self._keys = counts, barrier, log, keys
        #: Column entry of every rank, job after job: profiler ``j``'s ranks
        #: are ``rows[starts[j]:starts[j + 1]]``, its barrier at ``roots[j]``
        #: and its times logged under ``keys[j]``.
        self.rows, self.starts = rows, starts
        self.roots = rows[starts]

    def preview(self, after: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(done, floor)`` for ``after``, the ranks' counts at the end of
        each tick, shape ``(T, ranks)``: the counts with the present ones as
        row 0, and each job's barrier under every row.  Nothing is written,
        so a window may still be cut short before :meth:`record`."""
        done = np.empty((len(after) + 1, self.rows.size))
        done[0] = self._counts[self.rows]
        done[1:] = after
        return done, np.minimum.reduceat(done, self.starts, axis=1)

    def record(self, done: np.ndarray, floor: np.ndarray, ticks: np.ndarray) -> None:
        """Commit a (possibly truncated) :meth:`preview`; tick ``k`` of it
        ended at ``ticks[k]``.  A falling count raises before any cell or
        epoch time is written."""
        fell = done[1:] < done[:-1]
        if fell.any():
            k, r = (int(i[0]) for i in fell.nonzero())
            raise ValueError(
                f"epoch count at row {self.rows[r]} went backwards: "
                f"{int(done[k, r])} -> {int(done[k + 1, r])}"
            )
        self._counts[self.rows] = done[-1]
        self._barrier[self.roots] = floor[-1]
        # One timestamp per epoch a barrier rose by, tick-major: each job's
        # stamps stay in time order, and a tick's float is shared by them all.
        rises = floor[1:] - floor[:-1]
        at, job = rises.nonzero()
        if not at.size:
            return
        gained = rises[at, job]
        if gained.max() > 1:  # several epochs inside one tick
            gained = gained.astype(np.intp)
            at, job = at.repeat(gained), job.repeat(gained)
        self._log.append(self._keys[job], ticks[at])
