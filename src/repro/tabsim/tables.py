"""State tables of the tabular simulator (paper §5.6).

"The node table indicates whether a given node is idle, or which job it is
executing, and tracks the current power consumption and current cap applied
to each node.  The job table keeps track of timestamps for queue entry, job
start, and job end, as well as the type of job."
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.workloads.nas import IDLE_NODE_POWER, P_NODE_MAX, JobType

__all__ = ["SimJobType", "NodeTable", "JobTable", "JobState"]


@dataclass(frozen=True)
class SimJobType:
    """Job-type properties the simulator consumes (paper §5.6).

    "Job type properties include the maximum acceptable QoS degradation ...,
    nodes per instance of the job type, maximum power per node while running
    the job, minimum power per node, and the elapsed execution time when the
    job runs with a cap at either of those power levels."
    """

    name: str
    nodes: int
    p_min: float
    p_max: float
    t_at_p_max: float  # fastest execution time (s)
    t_at_p_min: float  # slowest execution time (s)
    qos_limit: float = 5.0

    def __post_init__(self) -> None:
        if self.nodes < 1:
            raise ValueError(f"{self.name}: nodes must be ≥ 1")
        if not 0 < self.p_min < self.p_max:
            raise ValueError(f"{self.name}: need 0 < p_min < p_max")
        if not 0 < self.t_at_p_max <= self.t_at_p_min:
            raise ValueError(
                f"{self.name}: need 0 < t_at_p_max ≤ t_at_p_min "
                f"(more power cannot be slower)"
            )

    @classmethod
    def from_job_type(cls, jt: JobType, *, node_scale: int = 1, qos_limit: float = 5.0) -> "SimJobType":
        """Derive simulator properties from a ground-truth catalog entry.

        ``node_scale`` multiplies the node count (§6.4 scales jobs 25×).
        """
        return cls(
            name=jt.name,
            nodes=jt.nodes * node_scale,
            p_min=jt.p_min,
            p_max=jt.p_demand,
            t_at_p_max=jt.compute_time(jt.p_max),
            t_at_p_min=jt.compute_time(jt.p_min),
            qos_limit=qos_limit,
        )

    def execution_time(self, p_cap: float | np.ndarray) -> float | np.ndarray:
        """Linear interpolation of execution time between the two anchors."""
        frac = (np.clip(p_cap, self.p_min, self.p_max) - self.p_min) / (
            self.p_max - self.p_min
        )
        return self.t_at_p_min + frac * (self.t_at_p_max - self.t_at_p_min)

    def progress_rate(self, p_cap: float | np.ndarray) -> float | np.ndarray:
        """Fraction of the job completed per second at cap ``p_cap``."""
        return 1.0 / self.execution_time(p_cap)


class JobState(enum.IntEnum):
    QUEUED = 0
    RUNNING = 1
    DONE = 2


# Plain ints for the per-job hot path: comparing a numpy scalar with an enum
# member makes numpy probe the enum's class for array protocols (4.9 µs a
# comparison against 0.1 µs).
_QUEUED, _RUNNING, _DONE = (int(s) for s in JobState)


class NodeTable:
    """Vectorised per-node state: assignment, cap, power, variation; every
    node has the testbed's envelope (:mod:`repro.workloads.nas`)."""

    def __init__(self, num_nodes: int) -> None:
        if num_nodes < 1:
            raise ValueError(f"need ≥ 1 node, got {num_nodes}")
        self.num_nodes = int(num_nodes)
        self.job_idx = np.full(num_nodes, -1, dtype=np.int64)  # -1 = idle
        self.cap = np.full(num_nodes, P_NODE_MAX, dtype=float)
        self.power = np.full(num_nodes, IDLE_NODE_POWER, dtype=float)
        self.perf_mult = np.ones(num_nodes, dtype=float)
        self.progress = np.zeros(num_nodes, dtype=float)  # current job's
        #: Bumped on every assignment change; the simulator caches its
        #: busy-set gathers (and the waterfill's sorted demands) against it.
        self.version = 0
        #: Running count of allocated nodes (== busy_mask.sum()).
        self.busy_count = 0
        #: True at one node per running job, its lowest-``perf_mult`` node.  A
        #: job's nodes start together and share one cap, and IEEE ``/``, ``*``
        #: and ``+`` are monotone, so that node's progress *is* the job's
        #: minimum on every step (ties are bitwise equal).
        self.slowest = np.zeros(num_nodes, dtype=bool)

    @property
    def idle_mask(self) -> np.ndarray:
        return self.job_idx < 0

    @property
    def busy_mask(self) -> np.ndarray:
        return self.job_idx >= 0

    def idle_indices(self) -> np.ndarray:
        return np.flatnonzero(self.idle_mask)

    def assign(self, node_indices: np.ndarray, job_index: int) -> None:
        if np.any(self.job_idx[node_indices] >= 0):
            raise RuntimeError("assigning a job to non-idle nodes")
        self.job_idx[node_indices] = job_index
        self.progress[node_indices] = 0.0
        self.cap[node_indices] = P_NODE_MAX
        self.slowest[node_indices[np.argmin(self.perf_mult[node_indices])]] = True
        self.version += 1
        self.busy_count += len(node_indices)

    def release(self, job_index: int) -> None:
        mask = self.job_idx == job_index
        self.busy_count -= int(mask.sum())
        self.job_idx[mask] = -1
        self.progress[mask] = 0.0
        self.cap[mask] = P_NODE_MAX
        self.power[mask] = IDLE_NODE_POWER
        self.slowest[mask] = False
        self.version += 1


class JobTable:
    """Append-only job ledger with growable parallel arrays."""

    _GROW = 256

    def __init__(self, num_types: int) -> None:
        self.num_types = int(num_types)
        self._cap = self._GROW
        self.count = 0
        self.type_idx = np.zeros(self._cap, dtype=np.int64)
        self.nodes = np.zeros(self._cap, dtype=np.int64)
        self.submit_time = np.zeros(self._cap, dtype=float)
        self.start_time = np.full(self._cap, np.nan, dtype=float)
        self.end_time = np.full(self._cap, np.nan, dtype=float)
        self.state = np.full(self._cap, _QUEUED, dtype=np.int64)

    def _grow(self) -> None:
        new_cap = self._cap + self._GROW
        for name in ("type_idx", "nodes", "submit_time", "start_time", "end_time", "state"):
            arr = getattr(self, name)
            grown = np.empty(new_cap, dtype=arr.dtype)
            grown[: self._cap] = arr
            if name in ("start_time", "end_time"):
                grown[self._cap:] = np.nan
            else:
                grown[self._cap:] = 0
            setattr(self, name, grown)
        self._cap = new_cap

    def add(self, type_idx: int, nodes: int, submit_time: float) -> int:
        """Record a queued job; returns its job index."""
        if not 0 <= type_idx < self.num_types:
            raise IndexError(f"type index {type_idx} out of range")
        if self.count == self._cap:
            self._grow()
        i = self.count
        self.type_idx[i] = type_idx
        self.nodes[i] = nodes
        self.submit_time[i] = submit_time
        self.state[i] = _QUEUED
        self.count += 1
        return i

    def mark_started(self, job_index: int, now: float) -> None:
        self._check(job_index)
        if self.state[job_index] != _QUEUED:
            raise RuntimeError(f"job {job_index} is not queued")
        self.start_time[job_index] = now
        self.state[job_index] = _RUNNING

    def mark_done(self, job_index: int, now: float) -> None:
        self._check(job_index)
        if self.state[job_index] != _RUNNING:
            raise RuntimeError(f"job {job_index} is not running")
        self.end_time[job_index] = now
        self.state[job_index] = _DONE

    def _check(self, job_index: int) -> None:
        if not 0 <= job_index < self.count:
            raise IndexError(f"job index {job_index} out of range [0, {self.count})")

    # ------------------------------------------------------------- analysis

    def sojourn_times(self) -> np.ndarray:
        """end − submit for completed jobs (NaN for incomplete)."""
        view = self.end_time[: self.count] - self.submit_time[: self.count]
        return view

    def completed_mask(self) -> np.ndarray:
        return self.state[: self.count] == _DONE

    def snapshot(self) -> dict[str, np.ndarray]:
        """Copies of the live columns (the per-tick state dump of §5.6)."""
        return {
            "type_idx": self.type_idx[: self.count].copy(),
            "nodes": self.nodes[: self.count].copy(),
            "submit_time": self.submit_time[: self.count].copy(),
            "start_time": self.start_time[: self.count].copy(),
            "end_time": self.end_time[: self.count].copy(),
            "state": self.state[: self.count].copy(),
        }
