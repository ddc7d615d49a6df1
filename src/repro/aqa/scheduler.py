"""Weight-proportional job scheduling (paper §4.4.2).

Each scheduling round, every queue may hold at most its weight-proportional
share of cluster nodes; the head job of a queue starts as soon as (a) the
queue is under its share and (b) enough idle nodes exist.  Queues that would
exceed their share wait even if nodes are idle — that headroom is what AQA
trades for demand-response flexibility ("primarily reducing power by
refraining from scheduling jobs to idle nodes", §6.4).  An optional
work-conserving fallback lends unused share to other queues.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.aqa.queues import QueueSet, WorkQueue
from repro.workloads.trace import JobRequest

__all__ = ["SchedulingDecision", "WeightedScheduler"]


@dataclass(frozen=True)
class SchedulingDecision:
    """Jobs the scheduler chose to start this round, in start order."""

    to_start: list[JobRequest]
    idle_nodes_after: int


class WeightedScheduler:
    """Starts queued jobs subject to weight-proportional node shares."""

    def __init__(self, queues: QueueSet, *, work_conserving: bool = False) -> None:
        self.queues = queues
        self.work_conserving = bool(work_conserving)
        # (queue, node share) in pick order, kept until a weight or the node
        # total it was computed for changes.
        self._plan_key: tuple | None = None
        self._plan: list[tuple[WorkQueue, float]] = []

    def schedule(self, idle_nodes: int) -> SchedulingDecision:
        """Choose jobs to start given ``idle_nodes`` free nodes.

        Callers must afterwards update each queue's ``running_nodes`` when
        jobs start and finish (see :meth:`job_started` / :meth:`job_finished`).
        """
        if idle_nodes < 0:
            raise ValueError(f"idle_nodes must be ≥ 0, got {idle_nodes}")
        queues = list(self.queues)
        total_nodes = idle_nodes + sum([q.running_nodes for q in queues])
        key = (total_nodes, *[q.weight for q in queues])
        if key != self._plan_key:
            shares = self.queues.node_shares(total_nodes)
            by_weight = sorted(queues, key=lambda q: (-q.weight, q.type_name))
            self._plan = [(q, shares[q.type_name]) for q in by_weight]
            self._plan_key = key
        to_start: list[JobRequest] = []
        free = idle_nodes
        # Round-robin across queues ordered by descending weight so heavier
        # queues get first pick, until no queue can start anything.
        progressing = True
        while progressing and free > 0:
            progressing = False
            for queue, share in self._plan:
                head = queue.peek()
                if head is None or head.nodes > free:
                    continue
                if queue.running_nodes + head.nodes > share + 1e-9:
                    continue
                queue.pop()
                queue.running_nodes += head.nodes
                free -= head.nodes
                to_start.append(head)
                progressing = True
        if self.work_conserving and free > 0:
            # Lend leftover nodes share-agnostically, FIFO by submit time.
            progressing = True
            while progressing and free > 0:
                progressing = False
                heads = [
                    (q.peek(), q)
                    for q in self.queues
                    if q.peek() is not None and q.peek().nodes <= free
                ]
                if heads:
                    head, queue = min(heads, key=lambda hq: hq[0].submit_time)
                    queue.pop()
                    queue.running_nodes += head.nodes
                    free -= head.nodes
                    to_start.append(head)
                    progressing = True
        return SchedulingDecision(to_start=to_start, idle_nodes_after=free)

    def job_finished(self, type_name: str, nodes: int) -> None:
        """Release a finished job's nodes back to its queue's accounting."""
        queue = self.queues[type_name]
        if queue.running_nodes < nodes:
            raise ValueError(
                f"queue {type_name!r} releasing {nodes} nodes "
                f"but only holds {queue.running_nodes}"
            )
        queue.running_nodes -= nodes
