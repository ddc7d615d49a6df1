"""Scheduler interface shared by the emulated-cluster policies."""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Sequence

__all__ = ["PendingJob", "RunningView", "Scheduler"]


@dataclass(frozen=True)
class PendingJob:
    """A queued job as the scheduler sees it."""

    job_id: str
    nodes: int
    submit_time: float
    est_runtime: float  # user-style estimate (e.g. the job's time limit)
    attempt: int = 1  # >1 when requeued after a node failure

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"{self.job_id}: nodes must be ≥ 1")
        if self.est_runtime <= 0:
            raise ValueError(f"{self.job_id}: est_runtime must be positive")
        if self.attempt < 1:
            raise ValueError(f"{self.job_id}: attempt must be ≥ 1")


@dataclass(frozen=True)
class RunningView:
    """A running job as the scheduler sees it."""

    job_id: str
    nodes: int
    est_end: float  # absolute estimated completion time

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"{self.job_id}: nodes must be ≥ 1")


class Scheduler(ABC):
    """Chooses which queued jobs start this round."""

    #: True when :meth:`select` is a pure function of
    #: ``(pending, running, idle_nodes)`` that never reads ``now`` and
    #: mutates no scheduler state.  The event-driven framework loop may then
    #: evaluate one round and reuse an empty decision across control-free
    #: ticks instead of re-polling every simulated second.  Policies that
    #: age jobs, reserve windows, or otherwise depend on the clock must
    #: leave this False.
    #:
    #: A time-invariant policy also never starts a job that sorts behind one
    #: it declined: if ``select(pending, ...)`` is empty, so is ``select(
    #: pending + tail, ...)`` for any ``tail`` sorting after ``pending`` on
    #: the same running jobs and idle nodes (FCFS: the head blocks
    #: everything behind it).  The loop then lets arrivals behind a declined
    #: queue join it inside a window instead of ending one.
    time_invariant: bool = False

    @abstractmethod
    def select(
        self,
        pending: Sequence[PendingJob],
        running: Sequence[RunningView],
        idle_nodes: int,
        now: float,
    ) -> list[PendingJob]:
        """Jobs to start now, in start order.

        Implementations must never start more nodes than ``idle_nodes`` and
        must not reorder the identity of jobs they return (each returned job
        appears exactly once and was in ``pending``).
        """

    @staticmethod
    def _validate(idle_nodes: int) -> None:
        if idle_nodes < 0:
            raise ValueError(f"idle_nodes must be ≥ 0, got {idle_nodes}")
