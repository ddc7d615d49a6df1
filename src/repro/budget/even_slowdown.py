"""Performance-aware balancer: even expected slowdown (paper §4.4.3).

Selects the common expected-slowdown limit ``s`` such that

    p_cap_j = P_j( s · T_j(p_max_j) )

uses the full power budget, where ``T_j`` maps power caps to time per epoch
(the job's quadratic model) and ``P_j`` is its inverse.  Jobs whose model
says they barely slow down under capping give up power first, steering watts
toward power-sensitive jobs.  Low-sensitivity jobs "level off" at the
platform's minimum cap as the budget shrinks (§6.1.1) — the clamping below
reproduces that saturation.

The answer is defined as what ``bisect_scalar`` on ``[1, s_hi]`` returns
(``tests/budget_reference.py`` keeps that solve verbatim).  It is computed
by *locate, then replay*: a few safeguarded Newton steps bracket the root
between a point where the total is over the budget and one where it is
under, then bisection's mids are replayed from ``[1, s_hi]``, and only those
strictly inside that bracket are evaluated.  That is exact when the total
cannot rise with ``s`` as floats, which every representative's certificate
(``QuadraticPowerModel.solve_constants``) guarantees; without one the
bracket stays ``[1, s_hi]`` and every mid is evaluated (DESIGN §7, *The
even-slowdown solve*).  While it is handed the same request objects, the
budgeter keeps the hoisted solve: only the search meets the new budget.
"""

from __future__ import annotations

from operator import is_
from typing import Sequence

from repro.budget.base import BudgetAllocation, JobBudgetRequest, PowerBudgeter
from repro.util.maths import clamp

__all__ = ["EvenSlowdownBudgeter"]

#: Bisection stops once its bracket on the common slowdown ``s`` is this
#: narrow (dimensionless; ``s`` runs from 1 up to a few).
SOLVE_TOL = 1e-6
#: The locate phase stops once its bracket is this narrow: the last one or
#: two bisection mids then fall inside it and are all the replay evaluates.
LOCATE_TOL = SOLVE_TOL / 4
#: A Newton point is pushed this far past the root it predicts, so the next
#: evaluation lands on the other side and closes the bracket.
LOCATE_OVERSHOOT = SOLVE_TOL / 16
#: Newton steps the locate phase may take; past them the replay evaluates
#: whatever mids remain inside the bracket, as bisection would.
LOCATE_STEPS = 8
#: ``bisect_scalar``'s default halving cap, which the replay keeps.
MAX_HALVINGS = 200


class _Solve:
    """One request, hoisted: everything invariant across trial slowdowns.

    One ``(bound inverse, T(p_max), p_min, p_max)`` per distinct ``(model,
    p_min, p_max)`` (jobs of one type share a model object, so their caps
    at any ``s`` are equal and need computing once) and one
    ``(representative, nodes)`` per job.  ``total_at(s)`` is one inverse
    per representative and one left-to-right ``+=`` over the jobs in
    request order, from ``0``: the adds of ``sum(caps[j.job_id] * j.nodes
    for j in jobs)``, so the total, and with it every sign the search
    reads, is that sum's float.  The inverse itself is written once, in
    ``QuadraticPowerModel.power_for_time``.  The totals at ``s = 1`` and at
    ``s_hi`` are kept once evaluated (``total_lo``, ``total_hi``): no budget
    enters them.
    """

    __slots__ = ("jobs", "members", "reps", "plan", "slopes", "s_hi", "certified",
                 "evaluations", "total_lo", "total_hi", "_s", "_caps")

    def __init__(self, jobs: Sequence[JobBudgetRequest]) -> None:
        self.jobs = jobs = tuple(jobs)
        groups: dict[tuple, list[int]] = {}
        for i, j in enumerate(jobs):
            groups.setdefault((id(j.model), j.p_min, j.p_max), []).append(i)
        self.members = members = list(groups.values())
        self.reps: list[tuple] = []
        self.slopes: list[tuple] = []
        self.plan: list[tuple[int, int]] = [(0, 0)] * len(jobs)
        s_hi = 1.0  # s = 1 gives everyone max power; s_hi saturates everyone at p_min
        certified = True
        for r, idx in enumerate(members):
            rep = jobs[idx[0]]
            t_fast, ratio, ok, two_a, b, lo, hi = rep.model.solve_constants(rep.p_min, rep.p_max)
            self.reps.append((rep.model.power_for_time, t_fast, rep.p_min, rep.p_max))
            nodes = 0
            for i in idx:
                self.plan[i] = (r, jobs[i].nodes)
                nodes += jobs[i].nodes
            self.slopes.append((nodes * t_fast, two_a, b, lo, hi))
            if ratio is not None:
                s_hi = max(s_hi, ratio)
            certified = certified and ok
        self.s_hi = s_hi * 1.01  # ensure the bracket truly saturates every job
        self.certified = certified
        self.evaluations = 0
        self.total_lo: float | None = None
        self.total_hi: float | None = None
        self._s: float | None = None
        self._caps: list[float] = []

    def rep_caps(self, s: float) -> list[float]:
        """Each representative's clamped cap at ``s`` (the last ``s`` is kept:
        the slope and the returned caps read the point just evaluated)."""
        if s != self._s:
            caps = []
            for inverse, t_fast, lo, hi in self.reps:
                p = inverse(s * t_fast)
                caps.append(lo if p < lo else hi if p > hi else p)
            self._s, self._caps = s, caps
        return self._caps

    def total_at(self, s: float) -> float:
        caps = self.rep_caps(s)
        self.evaluations += 1
        total = 0
        for r, nodes in self.plan:
            total += caps[r] * nodes
        return total

    def slope_at(self, s: float) -> float:
        """``d total / d s`` at ``s``: ``nodes · T(p_max) / T'(p)`` summed over
        the representatives whose cap is strictly inside both ranges (a Newton
        direction only; nothing the answer depends on)."""
        slope = 0.0
        for (weight, two_a, b, lo, hi), p in zip(self.slopes, self.rep_caps(s)):
            if lo < p < hi:
                slope += weight / (two_a * p + b)
        return slope

    def caps_at(self, s: float) -> dict[str, float]:
        caps = self.rep_caps(s)
        jobs = self.jobs
        return {jobs[i].job_id: cap for cap, idx in zip(caps, self.members) for i in idx}


class EvenSlowdownBudgeter(PowerBudgeter):
    """Equalises model-predicted slowdown across jobs (time-balancing)."""

    name = "even-slowdown"

    def __init__(self) -> None:
        # Where the locate phase starts: the last solve's ``s``.  A search
        # hint only — the answer is bisection's whatever it holds.
        self._hint = 1.0
        # The last solve, kept while ``allocate`` is handed the same request
        # objects in the same order: nothing in it depends on the budget.
        self._kept: _Solve | None = None
        # Plain work counts, for tests and reports: non-empty solves, those
        # that reused the kept ``_Solve``, their ``total_at`` evaluations,
        # and those made without a certificate (every bisection mid
        # evaluated).
        self.solves = 0
        self.reused_solves = 0
        self.evaluations = 0
        self.uncertified_solves = 0

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
        solve = self._kept
        if solve is not None and len(jobs) == len(solve.jobs) and all(map(is_, jobs, solve.jobs)):
            self.reused_solves += 1
        else:
            solve = self._kept = _Solve(jobs)
        solve.evaluations = 0
        if solve.total_lo is None:
            solve.total_lo = solve.total_at(1.0)
        total_lo = solve.total_lo
        if total_lo <= budget:
            s = 1.0
        else:
            if solve.total_hi is None:
                solve.total_hi = solve.total_at(solve.s_hi)
            total_hi = solve.total_hi
            if total_hi >= budget:
                s = solve.s_hi
            else:
                s = self._search(solve, budget, total_lo - budget, total_hi - budget)
        self.solves += 1
        self.evaluations += solve.evaluations
        self.uncertified_solves += not solve.certified
        self._hint = s
        return BudgetAllocation(caps=solve.caps_at(s), budget=budget, meta={"slowdown": s})

    def _search(self, solve: _Solve, budget: float, f_lo: float, f_hi: float) -> float:
        """``bisect_scalar(lambda s: total_at(s) − budget, 1, s_hi, tol=SOLVE_TOL)``
        for ``f_lo`` at 1 and ``f_hi`` at ``s_hi`` of opposite sign (or NaN)."""
        # Locate: (pos, neg) always holds a point with f > 0 and one with
        # f < 0; with a certificate f never rises with s, so f > 0 on all of
        # [1, pos] and f < 0 on all of [neg, s_hi].
        pos, neg = 1.0, solve.s_hi
        zero = None  # a located x with f == 0: bisect_scalar returns it as a mid
        if solve.certified:
            x = self._hint
            if not pos < x < neg:  # a fresh budgeter: the chord's root
                x = pos + f_lo * (neg - pos) / (f_lo - f_hi)
            for _ in range(LOCATE_STEPS):
                if not pos < x < neg:
                    x = 0.5 * (pos + neg)
                f = solve.total_at(x) - budget
                if f > 0:
                    pos = x
                elif f < 0:
                    neg = x
                else:  # f == 0 or NaN, not a strict sign: neither end may move to it
                    zero = x if f == 0 else None
                    break
                if neg - pos <= LOCATE_TOL:
                    break
                slope = solve.slope_at(x)
                if slope < 0:
                    x -= f / slope
                    x += LOCATE_OVERSHOOT if f > 0 else -LOCATE_OVERSHOOT
                else:
                    x = neg  # flat here: bisect the bracket next
        # Replay bisect_scalar's halvings from [1, s_hi]: a mid at or beyond
        # an end of the bracket has that end's sign, the located zero returns,
        # and one otherwise inside is evaluated.
        # Its return tests (f == 0, bracket under tol) both return the mid,
        # so the last mid needs no evaluation.  ``up``: bisect_scalar moves
        # ``lo`` only on a mid whose f has f(lo)'s sign; f(1) is > 0 or NaN.
        up = f_lo > 0
        lo, hi = 1.0, solve.s_hi
        for _ in range(MAX_HALVINGS):
            mid = 0.5 * (lo + hi)
            if hi - lo < SOLVE_TOL:
                return mid
            if mid <= pos:
                lo = mid
            elif mid >= neg:
                hi = mid
            elif mid == zero:
                return mid
            else:
                f = solve.total_at(mid) - budget
                if f == 0.0:
                    return mid
                if up and f > 0:
                    lo = mid
                else:
                    hi = mid
        raise RuntimeError(
            f"bisect_scalar did not converge within max_iter={MAX_HALVINGS}: "
            f"bracket [{lo}, {hi}] still wider than tol={SOLVE_TOL}"
        )
