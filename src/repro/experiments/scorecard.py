"""Reproduction scorecard: the paper's claims, stated once.

Each figure's qualitative claims ("who wins, by roughly what factor, where
crossovers fall") are named :class:`Claim` predicates over the figure's
experiment result, and :data:`CLAIMS` maps each figure (plus ``qos``, §5.2's
queue trace) to its rows.  :func:`score` turns a result into a pass/fail
table.  Every figure bench under ``benchmarks/`` asserts its card and
nothing else, so a row here is the only statement of what reproducing that
figure means.  The bounds hold at the benches' parameters; the smaller
``--quick`` runs of the ``anor`` CLI are not held to them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.analysis.tracking import TrackingConstraint
from repro.aqa.qos import QoSConstraint, wait_exec_ratio_percentile
from repro.experiments.fig5 import worst_excess_slowdown

__all__ = ["CLAIMS", "Claim", "ClaimOutcome", "Scorecard", "evaluate", "score"]


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


def evaluate(claims: Sequence[Claim], result: object) -> Scorecard:
    return Scorecard([c.evaluate(result) for c in claims])


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


#: Every figure's rows, by the ``anor`` command that regenerates it.
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
}


def score(figure: str, result) -> Scorecard:
    """Evaluate ``figure``'s rows of :data:`CLAIMS` over its result."""
    return evaluate(CLAIMS[figure], result)
