"""Receding-horizon planner: pre-solve the budgeter over the next H rounds.

The planner (when enabled) maintains a short plan: it asks the forecaster
for the target at each of the next ``HORIZON_ROUNDS`` round instants (plus
any *exact* breakpoints a schedule forecaster publishes), clamps each
predicted target through the safety envelope's ``min(forecast,
last-observed)`` bound, and solves the configured budgeter once per horizon
point.  The result is a per-job **cap trajectory** — the caps the manager
would dispatch at each upcoming instant if the forecast holds.  Replanning
is event-triggered: the trajectory is reused round to round while dispatch
keeps warm-hitting it, and fully re-solved on any deviation (job churn,
pool drift, forecast miss) or once half the horizon has elapsed.

At dispatch time the manager consumes the plan as a warm start
(:meth:`RecedingHorizonPlanner.dispatch`): if the envelope is ``active``,
the pre-solved round for "now" matches the current job set, and its planned
total fits the budget pool derived from the *actual* target just read, the
stored caps are used without re-solving.  Otherwise the budgeter runs fresh
against the actual pool — exactly the reactive path.  Either way a
cap-churn hysteresis pass then holds each job's previous cap when the new
one moved by less than ``hysteresis_watts`` (and the held total still fits
the pool), suppressing the per-round correction-drift micro-rewrites that
dominate cap churn on regulation targets.

Plan **instants** — breakpoints the schedule forecaster knows about — are
exposed via :meth:`next_instant`/:meth:`take_due_instants` so the framework
can fire extra control rounds exactly when the target steps, and register
them with the event calendar so event-driven striding stays bit-identical
to tick stepping.  Instants are only surfaced while the envelope is
``active``: in shadow/fallback the control cadence must be exactly the
reactive one.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.budget.base import BudgetAllocation, JobBudgetRequest, PowerBudgeter
from repro.plan.envelope import PLAN_ACTIVE, PLAN_FALLBACK, SafetyEnvelope
from repro.plan.forecast import TargetForecaster
from repro.telemetry import NULL_TELEMETRY

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from repro.core.round import BudgetRound

__all__ = ["PlannedRound", "Plan", "RecedingHorizonPlanner"]

#: Manager rounds a plan looks ahead: long enough to pre-position caps for
#: a target step, short enough that a rebuild stays a handful of solves.
HORIZON_ROUNDS = 8


@dataclass(frozen=True)
class PlannedRound:
    """One point of the cap trajectory.

    Rounds carry ``caps=None`` until materialized: their budget and
    forecast are fixed at build time, but the budgeter solve is deferred
    until dispatch actually warm-hits the round (most rounds are
    superseded by a replan first, so solving them eagerly is pure waste).
    """

    time: float  # instant this round is planned for
    forecast: float  # ŷ(time) from the forecaster (W)
    effective_target: float  # min(forecast, last-observed) — envelope bound
    budget: float  # pool the budgeter was solved against (W)
    caps: Mapping[str, float] | None  # job_id -> per-node cap (W); None = lazy
    planned_watts: float | None  # Σ caps·nodes over the planned job set
    signature: tuple  # job-set identity the solve assumed


@dataclass
class Plan:
    """A cap trajectory built at one control round."""

    built_at: float
    rounds: list[PlannedRound] = field(default_factory=list)

    def round_at(self, now: float, *, max_age: float, eps: float) -> PlannedRound | None:
        """Zero-order-hold lookup: the newest round at or before ``now``.

        Returns None when the best candidate is older than ``max_age`` —
        a stale trajectory point must not be replayed past the next round.
        """
        best: PlannedRound | None = None
        for rnd in self.rounds:
            if rnd.time <= now + eps and (best is None or rnd.time > best.time):
                best = rnd
        if best is None or now - best.time > max_age + eps:
            return None
        return best


class RecedingHorizonPlanner:
    """Budgeter lookahead with warm-start dispatch and churn hysteresis."""

    def __init__(
        self,
        *,
        budgeter: PowerBudgeter,
        forecaster: TargetForecaster,
        envelope: SafetyEnvelope,
        period: float = 4.0,
        hysteresis_watts: float = 8.0,
        telemetry=NULL_TELEMETRY,
    ) -> None:
        if period <= 0:
            raise ValueError(f"period must be positive, got {period}")
        if hysteresis_watts < 0:
            raise ValueError(f"hysteresis_watts must be ≥ 0, got {hysteresis_watts}")
        self.budgeter = budgeter
        self.forecaster = forecaster
        self.envelope = envelope
        self.period = float(period)
        self.hysteresis_watts = float(hysteresis_watts)
        self._eps = self.period * 1e-6
        # Rounds solve lazily: bursty scenarios rebuild almost every control
        # round (job churn invalidates the signature), so eager solves would
        # mostly be thrown away — dispatch materializes a round's caps only
        # when its budget actually matches the live pool.
        self.plan: Plan | None = None
        self._instants: list[float] = []
        # counters for drills/telemetry
        self.plans_built = 0
        self.lazy_solves = 0
        self.warm_hits = 0
        self.fresh_solves = 0
        self.hysteresis_holds = 0
        self._pending: list[tuple[float, float]] = []
        self.telemetry = telemetry
        reg = telemetry.registry
        self._mx_state = reg.gauge(
            "anor_plan_state",
            "planner envelope state (0 shadow, 1 active, 2 fallback)",
        )
        self._mx_forecast_error = reg.gauge(
            "anor_forecast_error_watts",
            "windowed mean absolute forecast error",
        )
        self._mx_fallbacks = reg.counter(
            "anor_plan_fallbacks_total",
            "envelope trips from active planning back to reactive",
        )
        self._plan_span = 0

    # -- state ------------------------------------------------------------
    @property
    def state(self) -> str:
        return self.envelope.state

    @property
    def active(self) -> bool:
        return self.envelope.state == PLAN_ACTIVE

    # -- observation / scoring --------------------------------------------
    def observe(self, now: float, target: float) -> str:
        """Score pending forecasts against the target just read, then advance
        the envelope state machine.  Called once per control round, before
        budgeting."""
        self.forecaster.observe(now, target)
        due = [p for p in self._pending if p[0] <= now + self._eps]
        if due:
            _, predicted = due[-1]
            self.forecaster.record_error(target - predicted)
            self._pending = [p for p in self._pending if p[0] > now + self._eps]
        return self.envelope.update(now, self.forecaster.mae, self.forecaster.errors.count)

    # -- plan construction ------------------------------------------------
    def rebuild(
        self,
        now: float,
        requests: Sequence[JobBudgetRequest],
        *,
        observed_target: float,
        idle_power: float,
        reserved: float,
        correction: float,
    ) -> Plan:
        """Solve the cap trajectory for the next ``HORIZON_ROUNDS`` rounds.

        ``observed_target`` is the actual target read this round — the
        envelope clamps every horizon point to ``min(ŷ, observed)``.  Idle
        draw, reserved (stale/dormant/quarantined) power, and the feedback
        correction are assumed constant over the horizon; they re-enter
        exactly at dispatch time, so this assumption only affects warm-hit
        quality, never safety.

        Replanning is event-triggered: while the trajectory is still valid
        (envelope active, job set unchanged, horizon not yet consumed) the
        existing plan is reused instead of re-solved — budgeter solves are
        the planner's whole cost on the reactive path, so rebuilds fix
        budgets and forecasts only, deferring every cap solve until a
        dispatch warm-hits the round.  Job churn or an envelope trip forces
        a full rebuild.
        """
        # The job-set signature is the requests themselves: a request
        # compares by value, its model too, and triage hands back the same
        # objects while nothing moved, so most comparisons are identity hits.
        sig = tuple(requests)
        if self._plan_reusable(now, sig):
            return self.plan
        horizon = HORIZON_ROUNDS * self.period
        times = [now + k * self.period for k in range(HORIZON_ROUNDS + 1)]
        breaks = [
            float(b)
            for b in self.forecaster.breakpoints(now, horizon)
            if now + self._eps < b <= now + horizon
        ]
        for b in breaks:
            if all(abs(b - t) > self._eps for t in times):
                times.append(b)
        times.sort()
        rounds: list[PlannedRound] = []
        for point in self.forecaster.forecast(now, times):
            effective = self.envelope.bound(point.value, observed_target)
            budget = max(effective - idle_power + correction - reserved, 1.0)
            rounds.append(
                PlannedRound(
                    time=point.time,
                    forecast=point.value,
                    effective_target=effective,
                    budget=budget,
                    caps=None,
                    planned_watts=None,
                    signature=sig,
                )
            )
        self.plan = Plan(built_at=now, rounds=rounds)
        self.plans_built += 1
        self._pending = [(r.time, r.forecast) for r in rounds if r.time > now + self._eps]
        self._instants = sorted(breaks)
        return self.plan

    def _plan_reusable(self, now: float, sig: tuple) -> bool:
        """True while the standing trajectory still matches reality.

        Forecast quality is already policed by the envelope — staying
        ``active`` means the error window is inside the bound — so the plan
        only goes stale through job churn (signature mismatch) or running
        out of horizon.  Shadow and fallback never reuse: their rebuilds
        feed the scoring that earns (re-)promotion, and a mispriced round
        can never be dispatched anyway (the warm-hit pool check rejects
        it).
        """
        if self.plan is None or not self.active:
            return False
        rounds = self.plan.rounds
        if not rounds or rounds[0].signature != sig:
            return False
        runway = sum(1 for r in rounds if r.time > now + self._eps)
        return runway >= min(2, HORIZON_ROUNDS)

    def clear(self) -> None:
        """Drop the current plan (no active jobs to plan for)."""
        self.plan = None
        self._pending = []
        self._instants = []

    # -- plan instants (event-calendar integration) ------------------------
    def next_instant(self) -> float | None:
        """Earliest upcoming plan instant, or None when inactive/empty."""
        if not self.active or not self._instants:
            return None
        return self._instants[0]

    def take_due_instants(self, now: float) -> bool:
        """Pop instants at or before ``now``; True when an active plan wants a
        control round fired at this tick."""
        due = [t for t in self._instants if t <= now + self._eps]
        if not due:
            return False
        self._instants = [t for t in self._instants if t > now + self._eps]
        return self.active

    # -- dispatch ----------------------------------------------------------
    def dispatch(
        self,
        now: float,
        requests: Sequence[JobBudgetRequest],
        pool: float,
        last_caps: Mapping[str, float | None],
    ) -> BudgetAllocation | None:
        """Produce this round's allocation, warm-starting from the plan.

        ``pool`` is the budget derived from the *actual* target read this
        round; the planned caps are only used when their total fits it, so
        a wrong forecast can never push allocation past the reactive bound.
        Returns None when the envelope is not ``active`` (caller runs the
        plain reactive path).
        """
        if not self.active:
            return None
        sig = tuple(requests)
        rnd = None
        if self.plan is not None:
            rnd = self.plan.round_at(now, max_age=self.period, eps=self._eps)
        # The budget tolerance bounds the systematic under-allocation a
        # stale-but-reused round can introduce: caps solved for a budget
        # within 0.5% of the actual pool track it to within 0.5%.
        candidate = (
            rnd is not None
            and rnd.signature == sig
            and abs(rnd.budget - pool) <= max(0.005 * pool, 1.0)
        )
        if candidate and rnd.caps is None:
            rnd = self._materialize(rnd, requests)
        warm = candidate and rnd.planned_watts <= pool + 1e-6
        if warm:
            caps = dict(rnd.caps)
            meta: dict[str, float] = {"plan_warm": 1.0, "plan_round_time": rnd.time}
            self.warm_hits += 1
        else:
            alloc = self.budgeter.allocate(requests, pool)
            caps = dict(alloc.caps)
            meta = dict(alloc.meta)
            meta["plan_warm"] = 0.0
            self.fresh_solves += 1
        caps, held = self._apply_hysteresis(caps, last_caps, requests, pool)
        if held:
            meta["plan_held_caps"] = float(held)
            self.hysteresis_holds += held
        return BudgetAllocation(caps=caps, budget=pool, meta=meta)

    def _materialize(self, rnd: PlannedRound, requests: Sequence[JobBudgetRequest]) -> PlannedRound:
        """Solve a lazily planned round at its build-time budget, in place."""
        alloc = self.budgeter.allocate(requests, rnd.budget)
        caps = dict(alloc.caps)
        full = replace(
            rnd, caps=caps,
            planned_watts=sum(caps[j.job_id] * j.nodes for j in requests),
        )
        assert self.plan is not None
        self.plan.rounds[self.plan.rounds.index(rnd)] = full
        self.lazy_solves += 1
        return full

    def _apply_hysteresis(
        self,
        caps: dict[str, float],
        last_caps: Mapping[str, float | None],
        requests: Sequence[JobBudgetRequest],
        pool: float,
    ) -> tuple[dict[str, float], int]:
        """Hold each job's previous cap when the new one barely moved.

        The held set is only accepted when its total stays within the
        dispatch pool (or does not exceed the freshly solved total) — the
        budget invariant outranks churn suppression.
        """
        if self.hysteresis_watts <= 0:
            return caps, 0
        held_caps: dict[str, float] = {}
        held = 0
        for job in requests:
            new = caps[job.job_id]
            old = last_caps.get(job.job_id)
            if (
                old is not None
                and abs(new - old) <= self.hysteresis_watts
                and job.p_min <= old <= job.p_max
                and old != new
            ):
                held_caps[job.job_id] = float(old)
                held += 1
            else:
                held_caps[job.job_id] = new
        if not held:
            return caps, 0
        total_held = sum(held_caps[j.job_id] * j.nodes for j in requests)
        total_new = sum(caps[j.job_id] * j.nodes for j in requests)
        if total_held > max(pool, total_new) + 1e-6:
            return caps, 0
        return held_caps, held

    # -- round stages ------------------------------------------------------
    #
    # What a cluster manager that owns a planner runs each round.  The
    # planned total must still fit the pool derived from the *actual* target
    # read this round, and breaker, shed and quarantine act after the plan is
    # consumed — a wrong forecast can never out-spend the reactive path.

    def observe_stage(self, rnd: "BudgetRound") -> None:
        # Score the previous round's forecast against the target just read
        # and advance the shadow/active/fallback state machine — before
        # budgeting, so a trip this round already budgets reactively.
        prev = self.state
        state = self.observe(rnd.time, rnd.target)
        mae = self.forecaster.mae
        if state != prev:
            rnd.report(
                rnd.time,
                f"plan {prev} -> {state} (mae={mae:.1f}W)",
                "plan-" + state,
                mae=mae,
                bound=self.envelope.error_bound_watts,
            )
            if state == PLAN_FALLBACK:
                self._mx_fallbacks.inc()
        self._mx_state.set(self.envelope.gauge)
        self._mx_forecast_error.set(mae)
        if not rnd.occupied:
            self.clear()

    def dispatch_stage(self, rnd: "BudgetRound") -> None:
        """Offer the round a warm start (left None while not ``active``)."""
        if not rnd.requests:
            return
        self._plan_span = self.telemetry.bus.begin_span(
            "plan-round", rnd.time, parent=rnd.span or None, state=self.state
        )
        rnd.allocation = self.dispatch(
            rnd.time,
            rnd.requests,
            rnd.pool,
            {r.job_id: r.last_cap for r in rnd.active},
        )

    def rebuild_stage(self, rnd: "BudgetRound") -> None:
        # Rebuild the cap trajectory for the next H rounds from this round's
        # job set and the envelope-clamped forecast; future dispatches
        # warm-start from it, and its breakpoints become plan instants for
        # the event calendar.
        if not rnd.requests:
            return
        plan = self.rebuild(
            rnd.time,
            rnd.requests,
            observed_target=rnd.target,
            idle_power=rnd.idle_power,
            reserved=rnd.reserved,
            correction=rnd.correction,
        )
        meta = rnd.allocation.meta
        self.telemetry.bus.end_span(
            self._plan_span,
            rnd.time,
            state=self.state,
            warm=meta.get("plan_warm", 0.0),
            held_caps=meta.get("plan_held_caps", 0.0),
            horizon_points=len(plan.rounds),
            forecast_mae=self.forecaster.mae,
        )
