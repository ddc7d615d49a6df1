"""Application epoch instrumentation (``geopm_prof_epoch()``, paper §4.3/§5.1).

The paper inserts one ``geopm_prof_epoch()`` call per iteration of each
benchmark's main outer loop; the epoch count increments once **all**
processes across all nodes running the benchmark have reached the call.
:class:`EpochProfiler` reproduces that barrier semantics: each rank calls
:meth:`prof_epoch`, and the global count is the minimum per-rank count.
The hardware emulator drives ranks directly from job progress.
"""

from __future__ import annotations

__all__ = ["EpochProfiler"]


class EpochProfiler:
    """Barrier-style epoch counter shared by all ranks of one job."""

    def __init__(self, num_ranks: int) -> None:
        if num_ranks < 1:
            raise ValueError(f"num_ranks must be ≥ 1, got {num_ranks}")
        self.num_ranks = int(num_ranks)
        self._rank_counts = [0] * self.num_ranks
        self._epoch_count = 0  # min(_rank_counts), kept as ranks are raised
        self._epoch_times: list[float] = []  # completion time of each epoch

    def prof_epoch(self, rank: int, *, timestamp: float = 0.0) -> int:
        """Rank ``rank`` finished one more main-loop iteration.

        Returns the new global epoch count.  The global count only advances
        when the slowest rank reaches the call, mirroring GEOPM's
        all-processes semantics.
        """
        if not 0 <= rank < self.num_ranks:
            raise IndexError(f"rank {rank} out of range [0, {self.num_ranks})")
        return self._raise(rank, self._rank_counts[rank] + 1, timestamp)

    def set_rank_progress(self, rank: int, count: int, *, timestamp: float = 0.0) -> int:
        """Set a rank's cumulative epoch count directly (emulator fast path)."""
        if not 0 <= rank < self.num_ranks:
            raise IndexError(f"rank {rank} out of range [0, {self.num_ranks})")
        if count < self._rank_counts[rank]:
            raise ValueError(
                f"rank {rank} epoch count went backwards: "
                f"{self._rank_counts[rank]} -> {count}"
            )
        return self._raise(rank, int(count), timestamp)

    def _raise(self, rank: int, count: int, timestamp: float) -> int:
        # The minimum can only move when the rank being raised sat at it.
        at_floor = self._rank_counts[rank] == self._epoch_count
        self._rank_counts[rank] = count
        if at_floor:
            after = min(self._rank_counts)
            for _ in range(after - self._epoch_count):
                self._epoch_times.append(float(timestamp))
            self._epoch_count = after
        return self._epoch_count

    @property
    def epoch_count(self) -> int:
        """Global epoch count: iterations completed by *every* rank."""
        return self._epoch_count

    @property
    def rank_counts(self) -> tuple[int, ...]:
        return tuple(self._rank_counts)

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
