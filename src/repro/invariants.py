"""The system's guarantees, each stated once (DESIGN.md §4h, *Monitors*).

An invariant is a named predicate whose docstring is its statement, slack
and source; DESIGN.md's table lists them all and ``tests/test_invariants.py``
holds the table to this module.  There are two kinds.  A *round* invariant
takes the :class:`~repro.core.round.BudgetRound` a manager round leaves behind
and returns what is wrong with it (``None``: it holds); :class:`RoundMonitor`
checks them all from inside the round, as the last stage of
``ClusterPowerManager._stages`` (``AnorSystem(monitors=[RoundMonitor(cfg)])``;
the system hands the same monitors to every manager a head restart builds).
A *run* invariant is a measurement over an ``AnorResult``, its power trace
or a drained system that a drill or test compares with its bound.

Drills, the soak, the property suites and the feature matrix import these;
nothing else under ``src/`` or ``tests/`` says what a violation is.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import TYPE_CHECKING, Collection, Iterable

import numpy as np

from repro.analysis.tracking import tracking_error_series
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.workloads.nas import P_NODE_MIN

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.framework import AnorConfig, AnorResult, AnorSystem
    from repro.core.round import BudgetRound

__all__ = [
    "CALM_SETTLE",
    "CALM_WINDOW",
    "PLAN_SLACK",
    "RAMP_SLACK",
    "RoundMonitor",
    "calm_overshoot",
    "caps_in_range",
    "caps_within_pool",
    "collateral_quarantines",
    "convergence_time",
    "double_admitted",
    "ghost_records",
    "longest_over_limit",
    "lost_jobs",
    "overshoot_stats",
    "planned_within_ceiling",
    "protected_never_shed",
    "quarantines",
    "ramp_bounded",
    "rounds_over_ceiling",
    "single_slowdown",
    "tracking_error_p90",
    "trim_held_when_empty",
]

#: Float slack on planned ≤ ceiling and Σ caps·nodes ≤ pool.  0.1 W on a
#: multi-kilowatt ceiling absorbs the budgeter's bisection/fp slop (present
#: in healthy runs too); anything beyond it is a real over-commitment.
PLAN_SLACK = 0.1

#: Float slack on the recovery ramp: ``min(feed, ceiling + ramp) − ceiling``.
RAMP_SLACK = 1.0

#: The calm-window overshoot's two spans.  A fault stays loud for
#: ``CALM_SETTLE`` s after its window closes.  Single-sample spikes are normal
#: even fault-free (a freshly dispatched job's setup phase draws demand power
#: before its first cap lands), so the excess is a ``CALM_WINDOW``-sample
#: (≈ seconds) rolling mean, over which a containment failure still shows:
#: it holds a victim's excess indefinitely.
CALM_SETTLE = 90.0
CALM_WINDOW = 60

_REFERENCE = EvenSlowdownBudgeter()


# --------------------------------------------------------- round invariants


def _over(planned, ceiling):
    return planned > ceiling + PLAN_SLACK


def planned_within_ceiling(rnd: "BudgetRound") -> str | None:
    """planned = idle + reserved + allocated ≤ ceiling = max(target + correction,
    floor), to ``PLAN_SLACK`` (paper §4.4; DESIGN §4h)."""
    if _over(rnd.planned, rnd.ceiling):
        return f"planned {rnd.planned:.1f}W > ceiling {rnd.ceiling:.1f}W"
    return None


def caps_within_pool(rnd: "BudgetRound") -> str | None:
    """Σ caps·nodes over the active jobs ≤ max(pool, Σ p_min·nodes), to
    ``PLAN_SLACK`` (paper §4.4.3: the caps share the budget)."""
    nodes = sum(r.nodes for r in rnd.active)
    total = sum(rnd.caps[r.job_id] * r.nodes for r in rnd.active)
    if _over(total, max(rnd.pool, nodes * P_NODE_MIN)):
        return f"caps total {total:.1f}W > pool {rnd.pool:.1f}W"
    return None


def caps_in_range(rnd: "BudgetRound") -> str | None:
    """Every dispatched cap ≥ p_min and an active job's ≤ its request's p_max,
    exactly (paper §4.4.3: caps within the platform's range)."""
    low = [j for j, cap in rnd.caps.items() if cap < P_NODE_MIN]
    high = [q.job_id for q in rnd.requests if rnd.caps[q.job_id] > q.p_max]
    if low or high:
        return f"caps below p_min {sorted(low)}, above p_max {sorted(high)}"
    return None


def single_slowdown(rnd: "BudgetRound") -> str | None:
    """An even-slowdown allocation is p_j = P_j(s·T_j(p_max)) at its one ``s``,
    to the bit (paper §4.4.3; DESIGN §7, *The even-slowdown solve*)."""
    alloc = rnd.allocation
    if alloc is None or "slowdown" not in alloc.meta or "plan_held_caps" in alloc.meta:
        return None  # another policy, a warm start, or caps held by hysteresis
    s = alloc.meta["slowdown"]
    if alloc.caps != _REFERENCE._caps_at(rnd.requests, s):
        return f"allocation is not the even-slowdown rule at s={s!r}"
    return None


def protected_never_shed(
    rnd: "BudgetRound", protected_types: Collection[str]
) -> str | None:
    """No preempt or kill action names a job of the protected shed class
    (DESIGN §10)."""
    shed = sorted(
        job_id
        for action, job_id in rnd.actions
        if action != "orphan" and rnd.jobs[job_id].claimed_type in protected_types
    )
    return f"protected jobs shed: {shed}" if shed else None


def ramp_bounded(
    rnd: "BudgetRound", previous_target: float, ramp_watts: float
) -> str | None:
    """With the ladder on, one manager's budgeting target rises by at most
    ``ramp_watts`` (the ladder's ``RAMP_WATTS_PER_ROUND``) a round, to
    ``RAMP_SLACK`` (DESIGN §10)."""
    step = rnd.target - previous_target
    if step > ramp_watts + RAMP_SLACK:
        return f"target rose {step:.1f}W in one round (ramp {ramp_watts:.1f}W)"
    return None


def trim_held_when_empty(rnd: "BudgetRound", previous_correction: float) -> str | None:
    """A round that budgets no job leaves the integral trim where the same
    manager's previous round left it, exactly: it cannot move idle draw, only
    wind up against it (DESIGN §4h, ``_read_meter``)."""
    if not rnd.occupied and rnd.correction != previous_correction:
        return f"trim moved {previous_correction!r} -> {rnd.correction!r}W on a round with no job"
    return None


#: What holds of every round that budgeted a job, whatever the config.
_EVERY_BUDGETED_ROUND = (
    planned_within_ceiling, caps_within_pool, caps_in_range, single_slowdown
)


class RoundMonitor:
    """A round observer that checks every round invariant and keeps the
    accounting drills read: pass it in ``AnorSystem(monitors=[...])``.

    ``rows`` has one ``(time, ceiling, planned)`` per round that budgeted a
    job; ``violations`` one ``(invariant, time, what)`` per breach.  The two
    ladder invariants are armed by a ``config`` with ``shed_enabled``;
    ``max_ramp_step`` is then the largest rise of the target between
    consecutive rounds of one manager, which the trim invariant compares too
    (a restarted head builds a new job table, trim and ladder, and with them
    a new baseline).
    """

    def __init__(self, config: "AnorConfig | None" = None) -> None:
        self.rows: list[tuple[float, float, float]] = []
        self.violations: list[tuple[str, float, str]] = []
        self.max_ramp_step = 0.0
        shed = config is not None and config.shed_enabled
        self._ramp_watts = None
        if shed:
            # Loaded with the ladder it checks (DESIGN.md §7, *Startup*).
            from repro.facility import shed as facility_shed

            self._ramp_watts = facility_shed.RAMP_WATTS_PER_ROUND
        self._protected = frozenset(
            claimed
            for claimed, cls in ((config.shed_classes or {}).items() if shed else ())
            if cls == "protected"
        )
        self._previous = (None, 0.0, 0.0)  # (job table, target, correction)

    def __call__(self, rnd: "BudgetRound") -> None:
        found = {}
        jobs, target, correction = self._previous
        same_manager = jobs is rnd.jobs
        self._previous = (rnd.jobs, rnd.target, rnd.correction)
        if same_manager:
            found[trim_held_when_empty] = trim_held_when_empty(rnd, correction)
        if self._ramp_watts is not None:
            found[protected_never_shed] = protected_never_shed(rnd, self._protected)
            if same_manager:
                self.max_ramp_step = max(self.max_ramp_step, rnd.target - target)
                found[ramp_bounded] = ramp_bounded(rnd, target, self._ramp_watts)
        if rnd.occupied:
            self.rows.append((rnd.time, rnd.ceiling, rnd.planned))
            found.update((check, check(rnd)) for check in _EVERY_BUDGETED_ROUND)
        self.violations += [
            (check.__name__, rnd.time, what) for check, what in found.items() if what
        ]

    def table(self) -> np.ndarray:
        """``rows`` as an array (no rounds: shape ``(0, 3)``)."""
        return np.asarray(self.rows) if self.rows else np.empty((0, 3))


# ----------------------------------------------------------- run invariants


def rounds_over_ceiling(rounds: np.ndarray) -> np.ndarray:
    """The rows of a :meth:`RoundMonitor.table` whose planned draw exceeded
    the ceiling by more than float slack."""
    return rounds[_over(rounds[:, 2], rounds[:, 1])]


def lost_jobs(reference: "AnorResult", run: "AnorResult") -> list[str]:
    """Jobs the reference run completed that ``run`` did not (DESIGN §4d)."""
    done = {t.job_id for t in run.completed}
    return sorted({t.job_id for t in reference.completed} - done)


def double_admitted(run: "AnorResult") -> list[str]:
    """Jobs that produced completion totals more than once (DESIGN §4d)."""
    counts = Counter(t.job_id for t in run.completed)
    return sorted(job_id for job_id, n in counts.items() if n > 1)


def ghost_records(system: "AnorSystem") -> int:
    """Manager job records still alive once the cluster has drained and the
    dead-job timeout has passed (DESIGN §4c)."""
    return len(system.manager.jobs)


def quarantines(system: "AnorSystem") -> dict[str, float]:
    """job_id -> first quarantine time, from the auditor's transition log."""
    out: dict[str, float] = {}
    for t in system.manager.auditor.transitions:
        if t.new == "quarantined":
            out.setdefault(t.job_id, t.time)
    return out


def collateral_quarantines(system: "AnorSystem") -> list[str]:
    """Quarantined jobs the fault injector never targeted: quarantine ⊆
    ``FaultInjector.victims`` (DESIGN §4f)."""
    return sorted(set(quarantines(system)) - set(system.faults.victims))


def longest_over_limit(
    trace: np.ndarray, *, floor: float, tol: float, after: float
) -> float:
    """Longest contiguous stretch past ``after`` with measured power above
    ``max(target, floor)·(1+tol)``, in seconds; the lease bounds it by
    ``lease_ttl + lease_ramp`` plus scheduling slack (DESIGN §4e)."""
    if not len(trace):
        return 0.0
    t, target, measured = trace[:, 0], trace[:, 1], trace[:, 2]
    over = (measured > np.maximum(target, floor) * (1.0 + tol)) & (t >= after)
    best, start = 0.0, None
    for i in range(len(t)):
        if over[i]:
            if start is None:
                start = t[i]
            best = max(best, float(t[i] - start))
        else:
            start = None
    return best


def tracking_error_p90(
    trace: np.ndarray, reserve: float, *, warmup: float, until: float
) -> float:
    """90th-percentile tracking error ``|measured − target| / reserve`` on
    ``[warmup, until]``, measured smoothed over the 4 s target period (paper
    §6.3's 30 % / 90 % constraint; DESIGN §4c).  Past ``until`` a cluster
    drains toward empty while the target stays committed, and that tail
    would swamp any comparison between runs."""
    errors = tracking_error_series(
        trace[trace[:, 0] <= until], reserve, t_start=warmup, smooth_samples=4
    )
    return float(np.percentile(errors, 90))


def convergence_time(
    reference: "AnorResult",
    run: "AnorResult",
    *,
    after: float,
    tol_watts: float,
    window: int = 30,
) -> float | None:
    """Seconds past ``after`` until ``run``'s measured power stays within
    ``tol_watts`` of the reference run's for ``window`` consecutive samples
    (None: never); a head restart and a healed partition must re-converge
    (DESIGN §4d, §4e)."""
    ref, got = reference.power_trace, run.power_trace
    n = min(len(ref), len(got))
    if n == 0:
        return None
    close = np.abs(got[:n, 2] - ref[:n, 2]) <= tol_watts
    start = int(np.searchsorted(got[:n, 0], after))
    for i in range(start, n - window + 1):
        if close[i : i + window].all():
            return float(got[i, 0] - after)
    return None


def overshoot_stats(trace: np.ndarray, t0: float, t1: float) -> tuple[float, float]:
    """(over-target energy in J, mean measured − target in W) on ``[t0, t1)``:
    what a rogue endpoint costs the facility with auditing on and off
    (DESIGN §4f)."""
    if not len(trace):
        return 0.0, 0.0
    mask = (trace[:, 0] >= t0) & (trace[:, 0] < t1)
    t, target, measured = trace[mask, 0], trace[mask, 1], trace[mask, 2]
    if len(t) < 2:
        return 0.0, 0.0
    dt = np.diff(t, append=t[-1])
    over = np.maximum(measured - target, 0.0)
    return float(np.sum(over * dt)), float(np.mean(measured - target))


def calm_overshoot(trace: np.ndarray, faults: Iterable) -> tuple[float, float] | None:
    """(time, W) of the largest ``CALM_WINDOW``-sample mean of measured −
    target over the windows no fault touches, a fault's span running until
    ``CALM_SETTLE`` s after it ends (None: no such window).  The chaos soak
    bounds it: the trust boundary contains what it quarantines (DESIGN §4f)."""
    if len(trace) < CALM_WINDOW:
        return None
    t, end = trace[:, 0], float(trace[-1, 0])
    calm = np.isfinite(trace[:, 2])
    for event in faults:
        span = getattr(event, "duration", None)
        if span is None:
            span = getattr(event, "down_for", 0.0)
        stop = event.time + span if math.isfinite(span) else end
        calm &= ~((t >= event.time) & (t < min(stop + CALM_SETTLE, end)))
    excess = np.where(calm, trace[:, 2] - trace[:, 1], 0.0)
    kernel = np.ones(CALM_WINDOW)
    rolled = np.convolve(excess, kernel / CALM_WINDOW, mode="valid")
    # A window counts only if every sample in it is calm.
    all_calm = np.convolve(calm.astype(float), kernel, mode="valid") == CALM_WINDOW
    if not all_calm.any():
        return None
    worst = int(np.argmax(np.where(all_calm, rolled, -np.inf)))
    return float(t[worst]), float(rolled[worst])
