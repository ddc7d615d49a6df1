"""Common budgeter interface and allocation record."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from repro.modeling.quadratic import QuadraticPowerModel
from repro.util import record

__all__ = ["JobBudgetRequest", "BudgetAllocation", "PowerBudgeter"]


class _RequestFields(NamedTuple):
    job_id: str
    nodes: int
    model: QuadraticPowerModel
    p_min: float
    p_max: float


@record
class JobBudgetRequest(_RequestFields):
    """Everything the cluster tier knows about one job when budgeting.

    ``model`` is whatever the cluster tier currently *believes* — a
    precharacterized model, a default for unknown types, or the job tier's
    latest online fit.  ``p_min``/``p_max`` bound the per-node power the job
    can usefully consume (the job's achievable power-demand range, §4.4.3).

    A named tuple (DESIGN.md §7, *Control-plane records*), rebuilt by triage
    only when what it holds moves; ``__new__`` validates the fields.
    """

    __slots__ = ()

    def __new__(cls, job_id, nodes, model, p_min, p_max):
        if nodes < 1:
            raise ValueError(f"{job_id}: nodes must be ≥ 1")
        if not p_min < p_max:
            raise ValueError(f"{job_id}: need p_min < p_max, got [{p_min}, {p_max}]")
        return tuple.__new__(cls, (job_id, nodes, model, p_min, p_max))


@dataclass(frozen=True)
class BudgetAllocation:
    """Per-job node caps chosen by a budgeter for one budgeting round."""

    caps: dict[str, float]  # job_id -> per-node cap (W)
    budget: float  # power the budgeter was asked to distribute (W)
    meta: dict[str, float] = field(default_factory=dict)  # e.g. gamma or s

    def total_power(self, jobs: Sequence[JobBudgetRequest]) -> float:
        """Total capped power if every job node runs at its cap."""
        by_id = {j.job_id: j for j in jobs}
        return sum(self.caps[jid] * by_id[jid].nodes for jid in self.caps)


class PowerBudgeter(ABC):
    """Chooses per-node power caps for each running job."""

    #: human-readable policy name used in experiment tables
    name: str = "abstract"

    @abstractmethod
    def allocate(
        self, jobs: Sequence[JobBudgetRequest], budget: float
    ) -> BudgetAllocation:
        """Distribute ``budget`` watts of CPU power across ``jobs``.

        ``budget`` covers only the nodes occupied by ``jobs`` (the cluster
        manager accounts for idle-node power before calling).  Every returned
        cap lies within the job's [p_min, p_max]; the total may be below the
        budget when the budget exceeds what all jobs can consume, or above it
        when even minimum caps cannot get that low — both are physical limits
        the paper notes leave "no flexibility ... beyond the range allowed by
        the power-capping interface" (§6.1.1).
        """

    @staticmethod
    def _validate(jobs: Sequence[JobBudgetRequest], budget: float) -> None:
        # ``nan <= 0`` is false: a NaN or infinite budget is refused here,
        # or it comes back as NaN caps or caps no finite total explains.
        if not (math.isfinite(budget) and budget > 0):
            raise ValueError(f"budget must be positive and finite, got {budget}")
        seen: set[str] = set()
        for job in jobs:
            if job.job_id in seen:
                raise ValueError(f"duplicate job id {job.job_id!r}")
            seen.add(job.job_id)
