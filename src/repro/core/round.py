"""The manager round's records: the contract between the cluster manager and
the features that take part in its round (DESIGN.md §4h).

:meth:`ClusterPowerManager.step` makes one :class:`BudgetRound` per period and
threads it through an ordered list of stages.  A stage is any callable taking
the round; it reads what earlier stages wrote and writes what later ones
read.  The manager's own stages live in :mod:`repro.core.cluster_manager`; an
optional feature (shed ladder, planner, breaker, auditor, telemetry) owns its
stages in its own module and appears in the list only when the manager was
built with it.  Nothing here imports a stage owner, so every owner can import
this.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.workloads.nas import P_NODE_MIN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.budget.base import BudgetAllocation, JobBudgetRequest
    from repro.core.messages import StatusMessage
    from repro.core.transport import TcpLink
    from repro.modeling.quadratic import QuadraticPowerModel

__all__ = ["JobRecord", "BudgetRound"]


@dataclass
class JobRecord:
    """Everything the cluster tier tracks about one job.  ``link`` is None
    while the job is known only from before a head-node restart."""

    job_id: str
    claimed_type: str
    nodes: int
    link: TcpLink | None
    believed_model: QuadraticPowerModel
    believed_p_max: float
    online_model: QuadraticPowerModel | None = None
    online_r2: float | None = None
    last_status: StatusMessage | None = None
    caps_sent: int = 0
    # Heartbeat state: wall-clock (manager-side) time any message last arrived
    # over this job's link, and the last cap the manager sent it.  A silent
    # job's believed draw is bounded by ``last_cap`` — the manager cannot
    # assume anything lower until it hears from the job again.
    last_heard: float = 0.0
    last_cap: float | None = None
    # Derived, never persisted: the request triage last budgeted it with,
    # reused while its model object, ``believed_p_max`` and width hold (its
    # floor is the platform's ``P_NODE_MIN``, which no run moves).
    request: JobBudgetRequest | None = field(default=None, repr=False, compare=False)

    @property
    def active_model(self) -> QuadraticPowerModel:
        """Online fit when available, else the believed precharacterized model."""
        return self.online_model if self.online_model is not None else self.believed_model


@dataclass(slots=True)
class BudgetRound:
    """One manager round: the record every stage reads and writes.

    :meth:`ClusterPowerManager.step` makes one, threads it through the
    manager's stage list (DESIGN.md §4h) and publishes it as ``last_round``.
    Afterwards it is the round's accounting (observability + invariant
    tests): ``planned`` (idle + reserved + allocated) is the manager's planned
    cluster draw; it never exceeds ``ceiling``, which is the corrected target,
    or ``floor`` — the platform's enforceable minimum for the same occupancy —
    where the target falls below it.
    """

    time: float
    jobs: dict[str, JobRecord]  # the manager's job table; linkless: recovering
    #: ``report(now, text, category=None, **attrs)``: the one emission site
    #: for a transition — its ``events`` line and its bus incident together.
    report: Callable[..., None]
    span: int = 0  # control-round span id (0: telemetry off)
    # The round's inputs, as the system read them: the facility's target
    # feed and meter sample (W; NaN: no reading this round).  No stage
    # writes either.
    feed: float = math.nan
    measured: float = math.nan
    # Budgeting target: the feed through the manager's hold-last-good
    # filter, then the shed ladder's ramped ceiling when it is lower.
    target: float = 0.0
    correction: float = 0.0  # the integral trim, as the meter stage left it
    # False when no job is connected or recovering: nothing is budgeted and
    # the round is not published.
    occupied: bool = False
    # Triage classes, each in job-id order.  ``recovering``: linkless, restored
    # from a checkpoint, no re-HELLO yet (last cap stays reserved); ``quarantined``:
    # held by the cap-compliance auditor at their metered envelope
    # (DESIGN.md §4f).  Both are counted inside ``reserved``.
    recovering: Sequence[JobRecord] = ()
    stale: Sequence[JobRecord] = ()
    dormant: Sequence[JobRecord] = ()
    active: Sequence[JobRecord] = ()
    quarantined: Sequence[JobRecord] = ()
    idle_power: float = 0.0  # watts reserved for idle nodes
    available: float = 0.0  # target - idle_power + correction
    reserved: float = 0.0  # watts reserved for everything but active jobs
    requests: Sequence[JobBudgetRequest] = ()  # one per active job
    allocation: BudgetAllocation | None = None
    allocated: float = 0.0  # watts the budgeter allocated to active jobs
    caps: dict[str, float] = field(default_factory=dict)  # job_id -> W/node
    rewrites: int = 0  # dispatched caps that differ from the job's previous
    # What the framework enforces after the round: ``(action, job_id)`` with
    # action ``orphan`` / ``preempt`` / ``kill``, and whether job launches
    # stay on hold.
    actions: list[tuple[str, str]] = field(default_factory=list)
    admission_held: bool = False

    @property
    def pool(self) -> float:
        """Watts the active jobs share."""
        return max(self.available - self.reserved, 1.0)

    @property
    def floor(self) -> float:
        return (
            self.idle_power
            + self.reserved
            + sum(r.nodes for r in self.active) * P_NODE_MIN
        )

    @property
    def planned(self) -> float:
        return self.idle_power + self.reserved + self.allocated

    @property
    def ceiling(self) -> float:
        """What ``planned`` may not exceed."""
        return max(self.target + self.correction, self.floor)

    stale_jobs = property(lambda self: len(self.stale))
    dormant_jobs = property(lambda self: len(self.dormant))
    active_jobs = property(lambda self: len(self.active))
    recovering_jobs = property(lambda self: len(self.recovering))
    quarantined_jobs = property(lambda self: len(self.quarantined))
