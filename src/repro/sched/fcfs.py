"""Strict first-come-first-served scheduling."""

from __future__ import annotations

from typing import Sequence

from repro.workloads.trace import JobRequest

__all__ = ["FcfsScheduler"]


class FcfsScheduler:
    """Start jobs in submission order; the head blocks everything behind it.

    This is the baseline behaviour of the paper's replay harness: simple,
    starvation-free, but it leaves nodes idle whenever the head job is wide.
    The window screens in ``AnorSystem`` rest on the head-blocks rule: an
    empty decision on a queue stays empty whatever sorts in behind it, until
    nodes free up (DESIGN.md §7, stride safety 4–5).
    """

    def select(self, pending: Sequence[JobRequest], idle_nodes: int) -> list[JobRequest]:
        """The prefix of ``pending`` (FCFS-ordered) that fits ``idle_nodes``."""
        if idle_nodes < 0:
            raise ValueError(f"idle_nodes must be ≥ 0, got {idle_nodes}")
        to_start: list[JobRequest] = []
        free = idle_nodes
        for job in pending:
            if job.nodes > free:
                break  # strict FCFS: nothing behind the head may pass it
            to_start.append(job)
            free -= job.nodes
        return to_start
