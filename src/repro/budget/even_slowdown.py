"""Performance-aware balancer: even expected slowdown (paper §4.4.3).

Selects the common expected-slowdown limit ``s`` such that

    p_cap_j = P_j( s · T_j(p_max_j) )

uses the full power budget, where ``T_j`` maps power caps to time per epoch
(the job's quadratic model) and ``P_j`` is its inverse.  Jobs whose model
says they barely slow down under capping give up power first, steering watts
toward power-sensitive jobs.  Low-sensitivity jobs "level off" at the
platform's minimum cap as the budget shrinks (§6.1.1) — the clamping below
reproduces that saturation.
"""

from __future__ import annotations

from typing import Sequence

from repro.budget.base import BudgetAllocation, JobBudgetRequest, PowerBudgeter
from repro.util.maths import bisect_scalar, clamp

__all__ = ["EvenSlowdownBudgeter"]


class EvenSlowdownBudgeter(PowerBudgeter):
    """Equalises model-predicted slowdown across jobs (time-balancing)."""

    name = "even-slowdown"

    def __init__(self, *, tol: float = 1e-6) -> None:
        self.tol = float(tol)

    def _caps_at(self, jobs: Sequence[JobBudgetRequest], s: float) -> dict[str, float]:
        """The rule per job, nothing hoisted: the reference ``allocate`` is tested against."""
        caps: dict[str, float] = {}
        for j in jobs:
            t_fast = j.model.time_per_epoch(j.p_max)
            p = j.model.power_for_time(s * t_fast)
            caps[j.job_id] = clamp(p, j.p_min, j.p_max)
        return caps

    def allocate(
        self, jobs: Sequence[JobBudgetRequest], budget: float
    ) -> BudgetAllocation:
        self._validate(jobs, budget)
        if not jobs:
            return BudgetAllocation(caps={}, budget=budget, meta={"slowdown": 1.0})

        # Hoist the per-job algebra that is invariant across bisection
        # iterations: T_j(p_max), and one representative per distinct
        # (model, p_min, p_max) — jobs of the same type share a model, so
        # their caps at any s are equal and need computing once.  Memoizing
        # caps by s also makes the final lookup free (bisect_scalar always
        # returns an s already evaluated via the bracket or the loop).
        t_fast = [j.model.time_per_epoch(j.p_max) for j in jobs]
        groups: dict[tuple, list[int]] = {}
        for i, j in enumerate(jobs):
            groups.setdefault((id(j.model), j.p_min, j.p_max), []).append(i)
        reps = [(jobs[idx[0]], t_fast[idx[0]], idx) for idx in groups.values()]
        caps_memo: dict[float, dict[str, float]] = {}

        def caps_at(s: float) -> dict[str, float]:
            caps = caps_memo.get(s)
            if caps is None:
                caps = {}
                for rep, tf, idx in reps:
                    p = clamp(rep.model.power_for_time(s * tf), rep.p_min, rep.p_max)
                    for i in idx:
                        caps[jobs[i].job_id] = p
                caps_memo[s] = caps
            return caps

        def total_at(s: float) -> float:
            caps = caps_at(s)
            return sum(caps[j.job_id] * j.nodes for j in jobs)

        # s = 1 gives everyone max power; s_hi saturates everyone at p_min.
        s_hi = 1.0
        for rep, tf, _ in reps:
            t_slow = rep.model.time_per_epoch(rep.p_min)
            if tf > 0:
                s_hi = max(s_hi, t_slow / tf)
        s_hi *= 1.01  # ensure the bracket truly saturates every job

        if total_at(1.0) <= budget:
            s = 1.0
        elif total_at(s_hi) >= budget:
            s = s_hi
        else:
            s = bisect_scalar(lambda x: total_at(x) - budget, 1.0, s_hi, tol=self.tol)
        caps = caps_at(s)
        return BudgetAllocation(caps=caps, budget=budget, meta={"slowdown": s})
