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

import numpy as np

__all__ = ["EpochBatch", "EpochLog", "EpochProfiler"]


class EpochLog:
    """Epoch timestamps of many profilers in one growing pair of arrays.

    An entry is a profiler's key and the time its job's barrier rose by one
    epoch; a profiler's entries, in log order, are its epoch times.  A
    closed key's entries are dropped once they are half the log, or when
    the arrays are full, and the arrays are then sized to twice what stays:
    the log holds about twice the stamps of its open keys.
    """

    def __init__(self, capacity: int = 256) -> None:
        self._keys = np.empty(capacity, dtype=np.int32)
        self._times = np.empty(capacity)
        self._size = 0
        self._opened = 0
        self._open: set[int] = set()
        self._closed = 0  # entries of closed keys still held

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

    def close(self, key: int) -> tuple[EpochLog, int]:
        """Close ``key``; returns a log of its own holding its stamps, and
        their key there."""
        stamps = self.times(key)
        own = EpochLog(max(len(stamps), 1))
        mine = own.open()
        own.append(np.full(len(stamps), mine), stamps)
        self._open.discard(key)
        self._closed += len(stamps)
        if 2 * self._closed > self._size:
            self._compact(0)
        return own, mine

    def _compact(self, more: int) -> None:
        """Drop closed keys' entries; room for ``more`` after what stays."""
        n = self._size
        alive = np.zeros(self._opened, dtype=bool)
        alive[list(self._open)] = True
        keep = alive[self._keys[:n]]
        size = int(np.count_nonzero(keep))
        capacity = max(2 * (size + more), 256)
        keys, times = np.empty(capacity, dtype=np.int32), np.empty(capacity)
        keys[:size], times[:size] = self._keys[:n][keep], self._times[:n][keep]
        self._keys, self._times, self._size, self._closed = keys, times, size, 0


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

    def detach(self) -> None:
        """Copy the cells and the epoch times out of the shared columns and
        log (the job left the cluster; its rows may be re-let while its
        counts are still read)."""
        self._counts = self._counts[self._rows]
        self._rows = np.arange(self.num_ranks)
        self._barrier = self._barrier.copy()
        self._log, self._key = self._log.close(self._key)

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

    @property
    def epoch_times(self) -> tuple[float, ...]:
        """Timestamps at which each global epoch completed."""
        return tuple(self._log.times(self._key).tolist())

    def seconds_per_epoch(self, last_n: int | None = None) -> float:
        """Mean seconds between recent epoch completions (≥ 2 epochs needed)."""
        times = self._log.times(self._key).tolist()
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
