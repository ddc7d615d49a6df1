"""Reproduction scorecard: the paper's claims and the drills', stated once.

Each figure's qualitative claims ("who wins, by roughly what factor, where
crossovers fall") are named :class:`Claim` predicates over the figure's
experiment result, and :data:`CLAIMS` maps each figure (plus ``qos``, §5.2's
queue trace) to its rows.  :func:`score` turns a result into a pass/fail
table.  Every figure bench under ``benchmarks/`` asserts its card and
nothing else, so a row here is the only statement of what reproducing that
figure means.  The bounds hold at the benches' parameters; the smaller
``--quick`` runs of the ``anor`` CLI are not held to them.

Each resilience drill's rows are keyed by its name and read its metrics
dict; they hold at the drill's calibrated default seed, full length and
``--quick``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.analysis.tracking import TrackingConstraint
from repro.aqa.qos import QoSConstraint, wait_exec_ratio_percentile
from repro.experiments.fig5 import worst_excess_slowdown

__all__ = ["CLAIMS", "Claim", "ClaimOutcome", "Scorecard", "score"]


@dataclass(frozen=True)
class Claim:
    """One falsifiable statement from the paper's evaluation."""

    figure: str
    statement: str
    check: Callable[[object], bool]

    def evaluate(self, result: object) -> "ClaimOutcome":
        try:
            passed = bool(self.check(result))
            error = None
        except Exception as exc:  # a crashed check is a failed claim
            passed, error = False, f"{type(exc).__name__}: {exc}"
        return ClaimOutcome(claim=self, passed=passed, error=error)


@dataclass(frozen=True)
class ClaimOutcome:
    claim: Claim
    passed: bool
    error: str | None = None


@dataclass
class Scorecard:
    """A batch of evaluated claims with render/summary helpers."""

    outcomes: list[ClaimOutcome]

    @property
    def passed(self) -> int:
        return sum(1 for o in self.outcomes if o.passed)

    @property
    def total(self) -> int:
        return len(self.outcomes)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.total

    def render(self) -> str:
        rows = [f"reproduction scorecard: {self.passed}/{self.total} claims hold"]
        for o in self.outcomes:
            mark = "PASS" if o.passed else "FAIL"
            suffix = f"  [{o.error}]" if o.error else ""
            rows.append(f"  [{mark}] {o.claim.figure}: {o.claim.statement}{suffix}")
        return "\n".join(rows)


# --------------------------------------------------------------------- fig 3

def _rel_lowest_cap(r) -> dict[str, float]:
    """Mean runtime at the lowest cap (140 W) relative to 280 W, per type."""
    return {n: r.relative_times(n)[0][0] for n in r.runtimes}


def _by_sensitivity(r) -> list[str]:
    """Job types from least to most power-sensitive."""
    rel = _rel_lowest_cap(r)
    return sorted(rel, key=rel.get)


FIG3_CLAIMS = (
    Claim("fig3", "EP is the most power-sensitive type",
          lambda r: _by_sensitivity(r)[-1] == "ep"),
    Claim("fig3", "IS is the least power-sensitive type",
          lambda r: _by_sensitivity(r)[0] == "is"),
    Claim("fig3", "EP takes > 1.6× its 280 W runtime at 140 W (paper: ~1.8×)",
          lambda r: _rel_lowest_cap(r)["ep"] > 1.6),
    Claim("fig3", "IS takes < 1.15× its 280 W runtime at 140 W (paper: ~1.08×)",
          lambda r: _rel_lowest_cap(r)["is"] < 1.15),
    Claim("fig3", "SP has the loosest characterization fit (paper: R²=0.84)",
          lambda r: r.r2["sp"] < min(v for t, v in r.r2.items() if t != "sp")),
    Claim("fig3", "BT, EP and LU fit with R² ≥ 0.95 (paper: most types ≥ 0.97)",
          lambda r: all(r.r2[t] >= 0.95 for t in ("bt", "ep", "lu"))),
)


# --------------------------------------------------------------------- fig 4

def _mid_improvement(r) -> bool:
    ep, es = r.max_slowdown("even-power"), r.max_slowdown("even-slowdown")
    m = len(ep) // 2
    return es[m] < ep[m] and (ep[m] - es[m]) / ep[m] > 0.25


FIG4_CLAIMS = (
    Claim("fig4", "even-slowdown never worsens the worst-job slowdown",
          lambda r: bool(np.all(
              r.max_slowdown("even-slowdown") <= r.max_slowdown("even-power") + 1e-9
          ))),
    Claim("fig4", "no opportunity at the budget extremes (the policies coincide)",
          lambda r: np.array_equal(r.max_slowdown("even-slowdown")[[0, -1]],
                                   r.max_slowdown("even-power")[[0, -1]])),
    Claim("fig4", "the mid-range budget shows a > 25 % worst-job improvement",
          _mid_improvement),
)


# --------------------------------------------------------------------- fig 5

FIG5_CLAIMS = (
    Claim("fig5", "underprediction slows the unknown job itself",
          lambda r: worst_excess_slowdown(r, "under-small", "ft(unknown)") > 0.05),
    Claim("fig5", "underprediction spares the sensitive co-scheduled job "
          "(< 2 points excess)",
          lambda r: worst_excess_slowdown(r, "under-small", "ep") < 0.02),
    Claim("fig5", "overprediction slows the sensitive co-scheduled job",
          lambda r: worst_excess_slowdown(r, "over-small", "ep") > 0.02),
    Claim("fig5", "overprediction spares the unknown job itself "
          "(≤ 1 point excess)",
          lambda r: worst_excess_slowdown(r, "over-small", "ft(unknown)") <= 0.01),
    Claim("fig5", "small unknown jobs suffer most under underprediction",
          lambda r: worst_excess_slowdown(r, "under-small", "ft(unknown)")
          > worst_excess_slowdown(r, "under-large", "ft(unknown)")),
    Claim("fig5", "large unknown jobs hurt others most under overprediction",
          lambda r: worst_excess_slowdown(r, "over-large", "ep")
          > worst_excess_slowdown(r, "over-small", "ep")),
)


# ------------------------------------------------------------- figs 6 to 8

def _mean(r, policy, job):
    return float(np.mean(r.slowdowns[policy][job]))


def _feedback_recovery(r) -> float:
    """Share of the under-estimated BT's slowdown that feedback removes."""
    under = _mean(r, "Under-estimate bt", "bt=is")
    return (under - _mean(r, "Under-estimate bt, with feedback", "bt=is")) / under


FIG6_CLAIMS = (
    Claim("fig6", "performance awareness reduces BT's slowdown vs agnostic",
          lambda r: _mean(r, "Performance Aware", "bt")
          < _mean(r, "Performance Agnostic", "bt")),
    Claim("fig6", "awareness cuts BT's slowdown by more than 1.5× "
          "(paper: ~11 % → ~5 %)",
          lambda r: _mean(r, "Performance Agnostic", "bt")
          / _mean(r, "Performance Aware", "bt") > 1.5),
    Claim("fig6", "under-estimating BT reopens the gap",
          lambda r: _mean(r, "Under-estimate bt", "bt=is")
          > _mean(r, "Performance Aware", "bt") + 0.05),
    Claim("fig6", "under-estimated BT slows at least 0.9× as much as under "
          "the agnostic policy (paper: ~15 % vs ~11 %)",
          lambda r: _mean(r, "Under-estimate bt", "bt=is")
          > 0.9 * _mean(r, "Performance Agnostic", "bt")),
    Claim("fig6", "feedback recovers part of the under-estimate loss",
          lambda r: _mean(r, "Under-estimate bt, with feedback", "bt=is")
          < _mean(r, "Under-estimate bt", "bt=is")),
    Claim("fig6", "feedback removes > 20 % of the under-estimated BT's slowdown",
          lambda r: _feedback_recovery(r) > 0.2),
    Claim("fig6", "feedback recovers part of the over-estimate loss",
          lambda r: _mean(r, "Over-estimate sp, with feedback", "bt")
          < _mean(r, "Over-estimate sp", "bt")),
)

FIG7_CLAIMS = (
    Claim("fig7", "two BT instances: agnostic and aware coincide (within 5 points)",
          lambda r: abs(_mean(r, "Performance Agnostic", "bt")
                        - _mean(r, "Performance Aware", "bt")) < 0.05),
    Claim("fig7", "the instance misclassified as IS slows > 3 points past its "
          "correctly classified twin",
          lambda r: _mean(r, "Under-estimate bt", "bt=is")
          > _mean(r, "Under-estimate bt", "bt") + 0.03),
    Claim("fig7", "feedback recovers part of the misclassified instance's loss",
          lambda r: _mean(r, "Under-estimate bt, with feedback", "bt=is")
          < _mean(r, "Under-estimate bt", "bt=is")),
)

FIG8_CLAIMS = (
    Claim("fig8", "two SP instances: agnostic and aware coincide (within 5 points)",
          lambda r: abs(_mean(r, "Performance Agnostic", "sp")
                        - _mean(r, "Performance Aware", "sp")) < 0.05),
    Claim("fig8", "SP slowdowns stay small: agnostic < 10 % (paper: ≤ ~6 %)",
          lambda r: _mean(r, "Performance Agnostic", "sp") < 0.10),
    Claim("fig8", "misclassifying the twin as EP leaves the co-job no more than "
          "1 point faster than aware (paper: a small visible slowdown)",
          lambda r: _mean(r, "Over-estimate sp", "sp")
          > _mean(r, "Performance Aware", "sp") - 0.01),
    Claim("fig8", "with feedback the co-job is at most 1 point slower than "
          "without (paper: feedback narrows it)",
          lambda r: _mean(r, "Over-estimate sp, with feedback", "sp")
          <= _mean(r, "Over-estimate sp", "sp") + 0.01),
)


# --------------------------------------------------------------------- fig 9

def _lands_on_target(r) -> bool:
    trace = r.result.power_trace
    steady = trace[trace[:, 0] >= r.warmup]
    target, measured = steady[:, 1].mean(), steady[:, 2].mean()
    return abs(measured - target) <= 0.08 * abs(target)


FIG9_CLAIMS = (
    Claim("fig9", "tracking error ≤ 30 % of reserve for ≥ 90 % of the time "
          "(§6.3; paper: ≤ 17 % here)",
          lambda r: TrackingConstraint(max_error=0.30, probability=0.90)
          .satisfied(r.errors())),
    Claim("fig9", "measured mean power lands within 8 % of the target mean "
          "past warmup",
          _lands_on_target),
    Claim("fig9", "the target never drops below the 2.3 kW band floor",
          lambda r: r.result.power_trace[:, 1].min() >= 2300.0),
    Claim("fig9", "the target never rises above the 4.5 kW band ceiling",
          lambda r: r.result.power_trace[:, 1].max() <= 4500.0),
)


# -------------------------------------------------------------------- fig 10

FIG10_CLAIMS = (
    Claim("fig10", "sensitive types slow most under uniform capping",
          lambda r: np.mean([r.mean_slowdown("Uniform")[t] for t in ("bt", "lu", "ft")])
          > np.mean([r.mean_slowdown("Uniform")[t] for t in ("sp", "mg", "cg")])),
    Claim("fig10", "characterized balancer improves the slowest type "
          "(paper: 11.6 % → 8.0 %)",
          lambda r: r.slowest_type("Characterized")[1] < r.slowest_type("Uniform")[1]),
    Claim("fig10", "misclassifying BT as IS inflates BT's slowdown",
          lambda r: r.mean_slowdown("Misclassified")["bt"]
          > r.mean_slowdown("Characterized")["bt"]),
    Claim("fig10", "the adjusted (feedback) policy recovers",
          lambda r: r.mean_slowdown("Adjusted")["bt"]
          < r.mean_slowdown("Misclassified")["bt"]),
    Claim("fig10", "every policy's 90th-pct tracking error stays under 35 % "
          "(§6.3 constraint: 30 %; paper: < 24 %)",
          lambda r: max(r.tracking_90th.values()) < 0.35),
)


# -------------------------------------------------------------------- fig 11

FIG11_CLAIMS = (
    Claim("fig11", "more performance variation ⇒ more QoS degradation",
          lambda r: np.mean([r.qos90[n][-1].mean() for n in r.qos90])
          > np.mean([r.qos90[n][0].mean() for n in r.qos90])),
    Claim("fig11", "power tracking stays within the 30 %/90 % constraint at "
          "every variation level (trial mean)",
          lambda r: float(r.tracking90.mean(axis=1).max()) < 0.30),
    Claim("fig11", "no type is near the QoS limit without variation",
          lambda r: all(r.qos90[n][0].mean() < r.qos_limit for n in r.qos90)),
)


# ------------------------------------------------------------- §5.2 (qos)

QOS_CLAIMS = (
    Claim("qos", "the queue trace's 90th-pct wait/exec ratio exceeds 22 "
          "(paper: > 22)",
          lambda trace: wait_exec_ratio_percentile(trace, 90.0) > 22.0),
    Claim("qos", "jobs degraded to the trace's wait/exec ratios would violate "
          "Q = 5 at 90 %, so the constraint is the stricter one",
          lambda trace: not QoSConstraint(limit=5.0, probability=0.9)
          .satisfied(trace[:, 0] / trace[:, 1])),
)


# ------------------------------------------------------------------ drills
# Each row reads the metrics dict of one ``resilience.run_drill`` result.

FAULTS_CLAIMS = (
    Claim("faults", "faulted run drains every submitted job",
          lambda m: m["unstarted_faulted"] == 0),
    Claim("faults", "jobs requeued by the node crash all finish",
          lambda m: m["requeued_completed"]),
    Claim("faults", "no ghost job records survive the drain",
          lambda m: m["ghost_jobs"] == 0),
    Claim("faults", "every fault fired and every fault window closed",
          lambda m: m["injector_quiescent"]),
    Claim("faults", "tracking error stays within 1.5x of healthy (90th pct)",
          lambda m: m["degradation_ratio"] <= 1.5),
)

HEADNODE_CLAIMS = (
    Claim("headnode", "planned draw never exceeds the budget ceiling, during "
          "or after recovery",
          lambda m: m["rounds_over_ceiling"] == 0),
    Claim("headnode", "no job the golden run completed is lost to the outage",
          lambda m: not m["lost_jobs"]),
    Claim("headnode", "no job is admitted twice across the restart",
          lambda m: not m["double_admitted"]),
    Claim("headnode", "surviving jobs reconcile warm (re-HELLO merges "
          "checkpointed state)",
          lambda m: m["recovery_merges"] > 0),
    Claim("headnode", "the power trace re-converges to the golden run within "
          "120 s of restart",
          lambda m: m["convergence_time"] is not None
          and m["convergence_time"] <= 120.0),
)

PARTITION_CLAIMS = (
    Claim("partition", "over-limit power is bounded by lease_ttl + ramp "
          "(+ slack) — the dead-man switch fired",
          lambda m: m["overshoot_seconds"] <= m["overshoot_bound"]),
    Claim("partition", "endpoints entered degraded autonomy during the partition",
          lambda m: m["degraded_endpoints"] > 0),
    Claim("partition", "the reliable layer declared the partition and its heal",
          lambda m: m["partitions_detected"] > 0 and m["partitions_healed"] > 0),
    Claim("partition", "no job the golden run completed is lost to the partition",
          lambda m: not m["lost_jobs"]),
    Claim("partition", "every fault fired and every fault window closed",
          lambda m: m["injector_quiescent"]),
    Claim("partition", "tracking re-converges to the golden run after the heal",
          lambda m: m["convergence_time"] is not None),
)

_BYZ_DETECTION_BOUND = 60.0  # s from fault fire to quarantine

BYZANTINE_CLAIMS = (
    Claim("byzantine", "a fault-free run with auditing on never quarantines "
          "anyone (zero false positives)",
          lambda m: m["false_quarantines_clean"] == 0),
    Claim("byzantine", "every rogue endpoint is quarantined",
          lambda m: not m["missed_victims"] and len(m["victims"]) >= 3),
    Claim("byzantine", "detection latency stays under the bound for every victim",
          lambda m: all(lat <= _BYZ_DETECTION_BOUND
                        for lat in m["detection_latencies"].values())),
    Claim("byzantine", "no honest job is quarantined during the attack",
          lambda m: not m["collateral_quarantines"]),
    Claim("byzantine", "with auditing on, facility power settles back under "
          "target after the last quarantine",
          lambda m: m["on_settled_mean"] <= 0.01 * m["target_power"]),
    Claim("byzantine", "with auditing off, the attack sustains facility "
          "overshoot (the contrast the auditor removes)",
          lambda m: m["off_detect_mean"] >= 0.03 * m["target_power"]),
    Claim("byzantine", "auditing cuts over-target energy by ≥ 1.5x",
          lambda m: m["off_total_energy"] >= 1.5 * m["on_total_energy"]),
    Claim("byzantine", "the healed actuator's job re-earns trust within the "
          "rehabilitation bound",
          lambda m: m["rehabilitated"]),
    Claim("byzantine", "victims whose faults never heal stay quarantined",
          lambda m: m["unhealed_still_quarantined"]),
)

SOAK_CLAIMS = (
    Claim("soak", "at least one randomized episode ran to drain",
          lambda m: len(m["episodes"]) >= 1),
    Claim("soak", "the fault mix actually exercised the trust boundary",
          lambda m: m["quarantines"] > 0),
    Claim("soak", "no online invariant was violated in any episode (budget "
          "conservation, bounded overshoot, drain, no collateral quarantine)",
          lambda m: bool(m["episodes"]) and not m["violations"]),
)

FORECAST_CLAIMS = (
    Claim("forecast", "predictive planning strictly improves tracking (90th "
          "pct error ratio < 1)",
          lambda m: m["tracking_ratio"] < 1.0),
    Claim("forecast", "hysteresis + plan warm starts reduce cap rewrites vs "
          "the reactive seed",
          lambda m: m["predictive_rewrites"] < m["reactive_rewrites"]),
    Claim("forecast", "predictive planned draw never exceeds the budget ceiling",
          lambda m: m["predictive_violations"] == 0),
    Claim("forecast", "even a deliberately wrong forecast never pushes planned "
          "draw over the ceiling (envelope clamp)",
          lambda m: m["adversarial_violations"] == 0),
    Claim("forecast", "the adversarial forecaster trips fallback within the "
          "configured error window",
          lambda m: m["adversarial_fallbacks"] > 0
          and m["fallback_latency"] is not None
          and m["fallback_latency"] <= m["fallback_latency_bound"]),
    Claim("forecast", "the exact schedule forecaster never trips fallback",
          lambda m: m["predictive_fallbacks"] == 0),
    Claim("forecast", "all three arms drain the same workload",
          lambda m: m["reactive_completed"] == m["predictive_completed"]
          == m["adversarial_completed"] and m["reactive_unstarted"] == 0),
)

SHED_CLAIMS = (
    Claim("shed", "every rung of the ladder fired: preempts, kills, and "
          "ramped restores all occurred under the staggered incidents",
          lambda m: m["preempts"] > 0 and m["kills"] > 0 and m["restores"] > 0),
    Claim("shed", "protected jobs are never preempted or killed",
          lambda m: not m["protected_shed"]),
    Claim("shed", "shed ordering is respected: kills hit only the preemptible "
          "class, preempts never reach the protected class",
          lambda m: not m["kill_order_violations"]
          and not m["preempt_order_violations"]),
    Claim("shed", "no job is shed twice within one incident episode",
          lambda m: not m["double_shed"]),
    Claim("shed", "the recovery ceiling ramps back at no more than the "
          "configured watts per round",
          lambda m: m["max_ramp_step"] <= m["ramp_bound"]),
    Claim("shed", "severity does not flap: at most one escalation per "
          "scheduled incident (plus slack), and the run ends at normal",
          lambda m: m["escalations"] <= m["flap_bound"]
          and m["recovered_to_normal"]),
    Claim("shed", "every preempted job completes after recovery (or is "
          "legitimately killed by a deeper rung)",
          lambda m: not m["preempted_unaccounted"]),
    Claim("shed", "every protected job runs to completion",
          lambda m: not m["protected_incomplete"]),
    Claim("shed", "the golden arm (same knobs, no incidents) never sheds",
          lambda m: m["golden_clean"]),
    Claim("shed", "every fault window closed (injector quiescent)",
          lambda m: m["injector_quiescent"]),
)


#: Every figure's rows, by the ``anor`` command that regenerates it, and
#: every drill's, by its ``anor resilience --drill`` name.
CLAIMS: dict[str, tuple[Claim, ...]] = {
    "fig3": FIG3_CLAIMS,
    "fig4": FIG4_CLAIMS,
    "fig5": FIG5_CLAIMS,
    "fig6": FIG6_CLAIMS,
    "fig7": FIG7_CLAIMS,
    "fig8": FIG8_CLAIMS,
    "fig9": FIG9_CLAIMS,
    "fig10": FIG10_CLAIMS,
    "fig11": FIG11_CLAIMS,
    "qos": QOS_CLAIMS,
    "faults": FAULTS_CLAIMS,
    "headnode": HEADNODE_CLAIMS,
    "partition": PARTITION_CLAIMS,
    "byzantine": BYZANTINE_CLAIMS,
    "soak": SOAK_CLAIMS,
    "forecast": FORECAST_CLAIMS,
    "shed": SHED_CLAIMS,
}


def score(name: str, result) -> Scorecard:
    """Evaluate ``name``'s rows of :data:`CLAIMS` over its result: a figure's
    experiment result, or a drill's metrics dict."""
    return Scorecard([claim.evaluate(result) for claim in CLAIMS[name]])
