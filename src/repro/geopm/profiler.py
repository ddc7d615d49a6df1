"""Application epoch instrumentation (``geopm_prof_epoch()``, paper §4.3/§5.1).

The paper inserts one ``geopm_prof_epoch()`` call per iteration of each
benchmark's main outer loop; the epoch count increments once **all**
processes across all nodes running the benchmark have reached the call.
:class:`EpochProfiler` reproduces that barrier semantics: each rank calls
:meth:`prof_epoch`, and the global count is the minimum per-rank count.
The hardware emulator drives every rank of every job across a window of
ticks through :class:`EpochBatch` (its window kernel); the per-node test
reference drives one rank at a time through
:meth:`EpochProfiler.set_rank_progress`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["EpochBatch", "EpochProfiler"]


class EpochProfiler:
    """Barrier-style epoch counter shared by all ranks of one job.

    ``cells`` is ``(counts, rows, barrier)``: a column of whole-epoch counts
    of which rank ``i`` owns entry ``rows[i]``, and a one-element view of the
    job-global count.  The emulated cluster passes its node-indexed columns
    so one array pass can raise every job's ranks; a standalone profiler
    allocates its own.
    """

    def __init__(
        self,
        num_ranks: int,
        *,
        cells: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ) -> None:
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be ≥ 1, got {num_ranks}")
        self.num_ranks = int(num_ranks)
        self._counts, self._rows, self._barrier = cells if cells is not None else (
            np.zeros(self.num_ranks, dtype=np.int64),
            np.arange(self.num_ranks),
            np.zeros(1, dtype=np.int64),
        )
        self._counts[self._rows] = 0
        self._barrier[0] = 0  # min over the ranks' counts, kept as they are raised
        self._epoch_times: list[float] = []  # completion time of each epoch

    def detach(self) -> None:
        """Copy the cells out of the shared columns (the job left the
        cluster; its rows may be re-let while its counts are still read)."""
        self._counts = self._counts[self._rows]
        self._rows = np.arange(self.num_ranks)
        self._barrier = self._barrier.copy()

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
            self._epoch_times.extend([float(timestamp)] * (after - floor))
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
        return tuple(self._epoch_times)

    def seconds_per_epoch(self, last_n: int | None = None) -> float:
        """Mean seconds between recent epoch completions (≥ 2 epochs needed)."""
        times = self._epoch_times if last_n is None else self._epoch_times[-last_n:]
        if len(times) < 2:
            raise ValueError("need at least two completed epochs")
        return (times[-1] - times[0]) / (len(times) - 1)


class EpochBatch:
    """Profilers that share one pair of columns, raised together.

    The array twin of :meth:`EpochProfiler.set_rank_progress` for every rank
    of every job across a window of ticks: the same counts, barriers and
    epoch timestamps as the tick-major, rank-ascending calls, with Python
    run only where a job's barrier rose.  It holds index arrays into the
    columns, so it lives as long as the set of profilers does.
    """

    def __init__(
        self,
        counts: np.ndarray,
        barrier: np.ndarray,
        rows: np.ndarray,
        starts: np.ndarray,
        profilers: Sequence[EpochProfiler],
    ) -> None:
        self._counts, self._barrier = counts, barrier
        #: Column entry of every rank, job after job: profiler ``j``'s ranks
        #: are ``rows[starts[j]:starts[j + 1]]``, its barrier at ``roots[j]``.
        self.rows, self.starts = rows, starts
        self.roots = rows[starts]
        self._profilers = profilers

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
        timestamp list is written."""
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
        # list stays in time order, and a tick's float is shared by them all.
        rises = floor[1:] - floor[:-1]
        at, job = rises.nonzero()
        gained = rises[at, job]
        if gained.size and gained.max() > 1:  # several epochs inside one tick
            gained = gained.astype(np.intp)
            at, job = at.repeat(gained), job.repeat(gained)
        profilers, stamp = self._profilers, ticks.tolist()
        for j, k in zip(job.tolist(), at.tolist()):
            profilers[j]._epoch_times.append(stamp[k])
