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

from typing import Callable, Sequence

from repro.budget.base import BudgetAllocation, JobBudgetRequest, PowerBudgeter
from repro.util.maths import bisect_scalar, clamp

__all__ = ["EvenSlowdownBudgeter"]

#: Bisection stops once its bracket on the common slowdown ``s`` is this
#: narrow (dimensionless; ``s`` runs from 1 up to a few).
SOLVE_TOL = 1e-6


class EvenSlowdownBudgeter(PowerBudgeter):
    """Equalises model-predicted slowdown across jobs (time-balancing)."""

    name = "even-slowdown"

    def _caps_at(self, jobs: Sequence[JobBudgetRequest], s: float) -> dict[str, float]:
        """The rule per job, nothing hoisted: the reference ``allocate`` is tested against."""
        caps: dict[str, float] = {}
        for j in jobs:
            t_fast = j.model.time_per_epoch(j.p_max)
            p = j.model.power_for_time(s * t_fast)
            caps[j.job_id] = clamp(p, j.p_min, j.p_max)
        return caps

    def _hoisted(
        self, jobs: Sequence[JobBudgetRequest]
    ) -> tuple[Callable[[float], float], Callable[[float], dict[str, float]], float]:
        """``(total_at, caps_at, s_hi)`` for one non-empty request.

        Everything invariant across bisection steps is computed here: one
        ``(bound inverse, T(p_max), p_min, p_max)`` per distinct ``(model,
        p_min, p_max)`` (jobs of one type share a model object, so their
        caps at any ``s`` are equal and need computing once) and one
        ``(representative, nodes)`` per job.  A step is then one inverse per
        representative and one left-to-right ``+=`` over the jobs in request
        order, from ``0``: the adds of ``sum(caps[j.job_id] * j.nodes for j
        in jobs)``, so the total, and with it the bisection's path, is that
        sum's float.  The inverse itself is written once, in
        ``QuadraticPowerModel.power_for_time``.
        """
        groups: dict[tuple, list[int]] = {}
        for i, j in enumerate(jobs):
            groups.setdefault((id(j.model), j.p_min, j.p_max), []).append(i)
        reps: list[tuple[Callable[[float], float], float, float, float]] = []
        plan: list[tuple[int, int]] = [(0, 0)] * len(jobs)
        s_hi = 1.0  # s = 1 gives everyone max power; s_hi saturates everyone at p_min
        members = list(groups.values())
        for r, idx in enumerate(members):
            rep = jobs[idx[0]]
            t_fast = rep.model.time_per_epoch(rep.p_max)
            reps.append((rep.model.power_for_time, t_fast, rep.p_min, rep.p_max))
            for i in idx:
                plan[i] = (r, jobs[i].nodes)
            if t_fast > 0:
                s_hi = max(s_hi, rep.model.time_per_epoch(rep.p_min) / t_fast)
        s_hi *= 1.01  # ensure the bracket truly saturates every job
        # Memoised by s: bisect_scalar re-evaluates both bracket ends, and the
        # s it returns is always one it has evaluated.
        memo: dict[float, list[float]] = {}

        def rep_caps(s: float) -> list[float]:
            caps = memo.get(s)
            if caps is None:
                caps = []
                for inverse, t_fast, lo, hi in reps:
                    p = inverse(s * t_fast)
                    caps.append(lo if p < lo else hi if p > hi else p)
                memo[s] = caps
            return caps

        def total_at(s: float) -> float:
            caps = rep_caps(s)
            total = 0
            for r, nodes in plan:
                total += caps[r] * nodes
            return total

        def caps_at(s: float) -> dict[str, float]:
            caps = rep_caps(s)
            return {jobs[i].job_id: cap for cap, idx in zip(caps, members) for i in idx}

        return total_at, caps_at, s_hi

    def allocate(
        self, jobs: Sequence[JobBudgetRequest], budget: float
    ) -> BudgetAllocation:
        self._validate(jobs, budget)
        if not jobs:
            return BudgetAllocation(caps={}, budget=budget, meta={"slowdown": 1.0})
        total_at, caps_at, s_hi = self._hoisted(jobs)
        if total_at(1.0) <= budget:
            s = 1.0
        elif total_at(s_hi) >= budget:
            s = s_hi
        else:
            s = bisect_scalar(lambda x: total_at(x) - budget, 1.0, s_hi, tol=SOLVE_TOL)
        return BudgetAllocation(caps=caps_at(s), budget=budget, meta={"slowdown": s})
