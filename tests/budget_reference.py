"""The even-slowdown solve by plain bisection: the test oracle.

``EvenSlowdownBudgeter.allocate`` locates the root with a few Newton steps
and replays bisection's mids, evaluating only those the located bracket
cannot decide.  This module is the solve that replaced: every mid of
``bisect_scalar`` on ``[1, s_hi]`` evaluated, with the same hoisting (one
inverse per distinct ``(model, p_min, p_max)``, the request-order ``+=``).
The equality tests hold the two bit-identical in ``meta["slowdown"]`` and
every cap.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.budget.base import BudgetAllocation, JobBudgetRequest
from repro.budget.even_slowdown import SOLVE_TOL
from repro.util.maths import bisect_scalar


def hoisted(
    jobs: Sequence[JobBudgetRequest],
) -> tuple[Callable[[float], float], Callable[[float], dict[str, float]], float, list[float]]:
    """``(total_at, caps_at, s_hi, evaluated)`` for one non-empty request;
    ``evaluated`` lists every distinct ``s`` the total was computed at."""
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
    evaluated: list[float] = []

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
        if s not in memo:
            evaluated.append(s)
        caps = rep_caps(s)
        total = 0
        for r, nodes in plan:
            total += caps[r] * nodes
        return total

    def caps_at(s: float) -> dict[str, float]:
        caps = rep_caps(s)
        return {jobs[i].job_id: cap for cap, idx in zip(caps, members) for i in idx}

    return total_at, caps_at, s_hi, evaluated


def allocate(jobs: Sequence[JobBudgetRequest], budget: float) -> tuple[BudgetAllocation, int]:
    """The bisection solve and the count of totals it evaluated."""
    if not jobs:
        return BudgetAllocation(caps={}, budget=budget, meta={"slowdown": 1.0}), 0
    total_at, caps_at, s_hi, evaluated = hoisted(jobs)
    if total_at(1.0) <= budget:
        s = 1.0
    elif total_at(s_hi) >= budget:
        s = s_hi
    else:
        s = bisect_scalar(lambda x: total_at(x) - budget, 1.0, s_hi, tol=SOLVE_TOL)
    return BudgetAllocation(caps=caps_at(s), budget=budget, meta={"slowdown": s}), len(evaluated)
