"""Strict first-come-first-served scheduling."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

__all__ = ["FcfsScheduler", "PendingJob"]


@dataclass(frozen=True)
class PendingJob:
    """A queued job as the scheduler sees it."""

    job_id: str
    nodes: int
    submit_time: float

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"{self.job_id}: nodes must be ≥ 1")


class FcfsScheduler:
    """Start jobs in submission order; the head blocks everything behind it.

    This is the baseline behaviour of the paper's replay harness: simple,
    starvation-free, but it leaves nodes idle whenever the head job is wide.
    The window screens in ``AnorSystem`` rest on the head-blocks rule: an
    empty decision on a queue stays empty whatever sorts in behind it, until
    nodes free up (DESIGN.md §7, stride safety 4–5).
    """

    def select(self, pending: Sequence[PendingJob], idle_nodes: int) -> list[PendingJob]:
        """The prefix of ``pending`` (FCFS-ordered) that fits ``idle_nodes``."""
        if idle_nodes < 0:
            raise ValueError(f"idle_nodes must be ≥ 0, got {idle_nodes}")
        to_start: list[PendingJob] = []
        free = idle_nodes
        for job in pending:
            if job.nodes > free:
                break  # strict FCFS: nothing behind the head may pass it
            to_start.append(job)
            free -= job.nodes
        return to_start
