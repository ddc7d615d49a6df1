"""The manager round's telemetry: one stage owner (DESIGN.md §4h, §8), built
by the manager only when telemetry is on.  ``control-round`` wraps the period
(its id rides the round as ``rnd.span``; the message handlers' events parent
themselves to it).  Bus records keep their place in the round; instruments
are order-free and published once, as the round closes.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.round import BudgetRound
    from repro.telemetry import Telemetry

__all__ = ["RoundTelemetry"]


class RoundTelemetry:
    """The control round's span, trace events and instruments."""

    def __init__(self, telemetry: Telemetry, policy: str) -> None:
        self._bus, self._registry = telemetry.bus, telemetry.registry
        self._policy = policy  # the budgeter's name, on every budget-round
        self._budget_span = 0
        reg = self._registry
        # Label-addressed children (anor_job_cap_watts{job=...}) are cached
        # per job: the registry resolves (name, labels) with validation and a
        # sorted label key on every call, otherwise paid per job per round.
        self._mx_job_cap: dict[str, object] = {}
        self._mx_rounds = reg.counter(
            "anor_budget_rounds_total", "budgeting rounds executed")
        self._mx_caps_sent = reg.counter(
            "anor_caps_sent_total", "per-job cap messages dispatched")
        self._mx_target = reg.gauge(
            "anor_cluster_target_watts", "current cluster power target")
        self._mx_measured = reg.gauge(
            "anor_cluster_power_watts", "facility-metered cluster power")
        self._mx_correction = reg.gauge(
            "anor_power_correction_watts", "integral trim on the budget")
        self._mx_planned = reg.gauge(
            "anor_planned_draw_watts", "idle + reserved + allocated plan")
        self._mx_jobs = {  # each state is a triage class on the round
            state: reg.gauge("anor_jobs", "connected jobs by budgeting state", state=state)
            for state in ("active", "dormant", "stale", "recovering", "quarantined")
        }
        self._mx_tracking = reg.histogram(
            "anor_tracking_error_ratio", "|measured - target| / target per manager period")
        # Dispatches that changed a job's cap: the churn the planner's
        # hysteresis is meant to reduce, counted in reactive runs too.
        self._mx_cap_rewrites = reg.counter(
            "anor_cap_rewrites_total", "cap dispatches that changed a job's previous cap")

    def open_round(self, rnd: BudgetRound) -> None:
        rnd.span = self._bus.begin_span("control-round", rnd.time)

    def trace_target(self, rnd: BudgetRound) -> None:
        self._bus.event("target-read", rnd.time, parent=rnd.span, target=rnd.target)

    def open_budget(self, rnd: BudgetRound) -> None:
        self._budget_span = self._bus.begin_span(
            "budget-round",
            rnd.time,
            parent=rnd.span,
            policy=self._policy,
            target=rnd.target,
            available=rnd.available,
        )

    def close_budget(self, rnd: BudgetRound) -> None:
        # Policy metadata rides along: even-slowdown publishes its common
        # slowdown s, fair-share its γ — whatever the budgeter reports.
        meta = rnd.allocation.meta if rnd.allocation is not None else {}
        self._bus.end_span(
            self._budget_span,
            rnd.time,
            allocated=rnd.allocated,
            reserved=rnd.reserved,
            idle_power=rnd.idle_power,
            correction=rnd.correction,
            floor=rnd.floor,
            stale=len(rnd.stale),
            dormant=len(rnd.dormant),
            active=len(rnd.active),
            recovering=len(rnd.recovering),
            quarantined=len(rnd.quarantined),
            **meta,
        )

    def trace_caps(self, rnd: BudgetRound) -> None:
        self._bus.event("cap-dispatch", rnd.time, parent=rnd.span, caps=dict(rnd.caps))

    def close_round(self, rnd: BudgetRound) -> None:
        """Publish the round's instruments (zeros when nothing was budgeted:
        no gauge outlives the jobs it counted) and close the span."""
        self._mx_rounds.inc()
        self._mx_target.set(rnd.target)
        if math.isfinite(rnd.measured):
            self._mx_measured.set(rnd.measured)
            if rnd.target > 0:
                self._mx_tracking.observe(abs(rnd.measured - rnd.target) / rnd.target)
        self._mx_correction.set(rnd.correction)
        self._mx_planned.set(rnd.planned)
        for state, gauge in self._mx_jobs.items():
            gauge.set(len(getattr(rnd, state)))
        self._mx_caps_sent.inc(len(rnd.caps))
        self._mx_cap_rewrites.inc(rnd.rewrites)
        cache = self._mx_job_cap
        for job_id in [j for j in cache if j not in rnd.jobs]:
            del cache[job_id]
        for job_id, cap in rnd.caps.items():
            gauge = cache.get(job_id)
            if gauge is None:
                gauge = cache[job_id] = self._registry.gauge(
                    "anor_job_cap_watts", "most recent per-node cap sent to each job",
                    job=job_id)
            gauge.set(cap)
        self._bus.end_span(rnd.span, rnd.time, jobs=len(rnd.caps))
