"""Message vocabulary between the cluster tier and job tier (paper Fig. 2).

Downward (cluster → job): :class:`BudgetMessage` carrying the job's new
per-node power cap.  Upward (job → cluster): :class:`HelloMessage` when a
job's endpoint connects, :class:`StatusMessage` with timestamped power and
performance data (and, when feedback is enabled, the job tier's fitted
power-model coefficients), and :class:`GoodbyeMessage` on completion.

Every message is timestamped at send time; §7.2 describes how timestamps are
what lets tiers running control loops at different rates map samples to the
caps that produced them.

Each message is an immutable named tuple (DESIGN.md §7, *Control-plane
records*): every job sends a status and is sent a budget each round, and a
tuple is built at a fraction of a frozen dataclass's cost.  A message that
validates its fields does so in ``__new__``, which ``_replace`` skips.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.util import record

__all__ = ["HelloMessage", "StatusMessage", "BudgetMessage", "GoodbyeMessage"]


@record
class HelloMessage(NamedTuple):
    """A job's endpoint announces itself to the cluster-tier manager.

    A *re*-HELLO after degraded-mode autonomy carries the endpoint's own
    fitted model so the manager can warm-merge instead of cold-probing —
    the endpoint kept observing epochs while the head was unreachable, and
    that history would otherwise be thrown away.
    """

    job_id: str
    claimed_type: str  # what the submission metadata says the job is
    nodes: int
    timestamp: float
    # Degraded-history handoff (all None/0 on a first HELLO).
    model_a: float | None = None
    model_b: float | None = None
    model_c: float | None = None
    model_r2: float | None = None
    degraded_seconds: float = 0.0

    @property
    def has_model(self) -> bool:
        return self.model_a is not None


@record
class StatusMessage(NamedTuple):
    """Periodic job-tier status: measured power, progress, optional model."""

    job_id: str
    timestamp: float
    epoch_count: int
    measured_power: float  # job CPU watts (all nodes)
    applied_cap: float  # per-node cap the agents report enforcing
    # Online model feedback (None until the job tier has a trustworthy fit,
    # or always None when feedback is disabled).
    model_a: float | None = None
    model_b: float | None = None
    model_c: float | None = None
    model_r2: float | None = None

    @property
    def has_model(self) -> bool:
        return self.model_a is not None


class _BudgetFields(NamedTuple):
    job_id: str
    power_cap_node: float
    timestamp: float
    # Cap lease: the cap is valid for ``lease_ttl`` seconds after
    # ``timestamp``; past that the job tier must treat the head as silent
    # and decay toward its ``p_min``.  ``None`` (the default) means an
    # unleased cap — hold-last-value semantics, as before this field existed.
    lease_ttl: float | None = None


@record
class BudgetMessage(_BudgetFields):
    """Cluster tier informs a job of its new per-node power cap."""

    __slots__ = ()

    def __new__(cls, job_id, power_cap_node, timestamp, lease_ttl=None):
        if power_cap_node <= 0:
            raise ValueError(f"{job_id}: power cap must be positive, got {power_cap_node}")
        if lease_ttl is not None and lease_ttl <= 0:
            raise ValueError(f"{job_id}: lease_ttl must be positive, got {lease_ttl}")
        return tuple.__new__(cls, (job_id, power_cap_node, timestamp, lease_ttl))


@record
class GoodbyeMessage(NamedTuple):
    """A job's endpoint disconnects after the job completes."""

    job_id: str
    timestamp: float
