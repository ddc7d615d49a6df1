"""Per-job-type work queues with node-share weights (paper §4.4.2).

AQA "models job types as a collection of work queues.  Each queue is
assigned a weight of node allocations that is tuned over simulations ...
Compute nodes are allocated so that queues with greater weight are assigned
more nodes."
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Iterable

import numpy as np

from repro.workloads.trace import JobRequest

__all__ = ["WorkQueue", "QueueSet"]


@dataclass
class WorkQueue:
    """FIFO queue of pending jobs of one type, plus its allocation weight."""

    type_name: str
    weight: float = 1.0
    pending: Deque[JobRequest] = field(default_factory=deque)
    running_nodes: int = 0  # nodes currently held by this queue's jobs

    def __post_init__(self) -> None:
        if self.weight < 0:
            raise ValueError(f"{self.type_name}: weight must be ≥ 0, got {self.weight}")

    def push(self, job: JobRequest) -> None:
        if job.type_name != self.type_name:
            raise ValueError(
                f"job {job.job_id} of type {job.type_name!r} "
                f"pushed to queue {self.type_name!r}"
            )
        self.pending.append(job)

    def peek(self) -> JobRequest | None:
        return self.pending[0] if self.pending else None

    def pop(self) -> JobRequest:
        return self.pending.popleft()

    def __len__(self) -> int:
        return len(self.pending)


class QueueSet:
    """All work queues plus weight-proportional node shares."""

    def __init__(self, queues: Iterable[WorkQueue]) -> None:
        self.queues = {q.type_name: q for q in queues}
        if not self.queues:
            raise ValueError("need at least one work queue")

    def __getitem__(self, type_name: str) -> WorkQueue:
        return self.queues[type_name]

    def __iter__(self):
        return iter(self.queues.values())

    def submit(self, job: JobRequest) -> None:
        try:
            self.queues[job.type_name].push(job)
        except KeyError:
            raise KeyError(
                f"no queue for job type {job.type_name!r}; "
                f"known: {sorted(self.queues)}"
            ) from None

    def node_shares(self, total_nodes: int) -> dict[str, float]:
        """Fractional node allocation per queue, proportional to weight."""
        weights = np.array([q.weight for q in self.queues.values()], dtype=float)
        total = weights.sum()
        if total == 0:
            # Degenerate: all weights zero means equal shares.
            weights = np.ones_like(weights)
            total = weights.sum()
        return dict(zip(self.queues, (total_nodes * weights / total).tolist()))

    def set_weights(self, weights: dict[str, float]) -> None:
        for name, w in weights.items():
            if name not in self.queues:
                raise KeyError(f"no queue named {name!r}")
            if w < 0:
                raise ValueError(f"{name}: weight must be ≥ 0, got {w}")
            self.queues[name].weight = float(w)

    @property
    def total_pending(self) -> int:
        return sum(len(q) for q in self.queues.values())
