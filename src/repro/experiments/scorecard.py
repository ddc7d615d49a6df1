"""Reproduction scorecard: programmatic checks of the paper's claims.

Each figure's qualitative claims ("who wins, by roughly what factor, where
crossovers fall") are encoded as named :class:`Claim` predicates over the
corresponding experiment result.  Scoring a result yields a pass/fail table
— the same checks the benchmark suite asserts, reusable from notebooks, CI,
or the ``anor`` CLI without pytest.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Claim",
    "ClaimOutcome",
    "Scorecard",
    "evaluate",
    "score_fig3",
    "score_fig4",
    "score_fig5",
    "score_fig6",
    "score_fig10",
    "score_fig11",
]


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

FIG3_CLAIMS = (
    Claim("fig3", "EP is the most power-sensitive type",
          lambda r: max(
              {n: r.relative_times(n)[0][0] for n in r.runtimes},
              key=lambda n: r.relative_times(n)[0][0],
          ) == "ep"),
    Claim("fig3", "IS is the least power-sensitive type",
          lambda r: min(
              {n: r.relative_times(n)[0][0] for n in r.runtimes},
              key=lambda n: r.relative_times(n)[0][0],
          ) == "is"),
    Claim("fig3", "SP has the loosest characterization fit (paper: R²=0.84)",
          lambda r: r.r2["sp"] == min(r.r2.values())),
    Claim("fig3", "high-sensitivity types fit with R² ≥ 0.97",
          lambda r: all(r.r2[t] >= 0.95 for t in ("bt", "ep", "lu"))),
)


def score_fig3(result) -> Scorecard:
    return evaluate(FIG3_CLAIMS, result)


# --------------------------------------------------------------------- fig 4

FIG4_CLAIMS = (
    Claim("fig4", "even-slowdown never worsens the worst-job slowdown",
          lambda r: bool(np.all(
              r.max_slowdown("even-slowdown") <= r.max_slowdown("even-power") + 1e-9
          ))),
    Claim("fig4", "no opportunity at the budget extremes",
          lambda r: abs(r.max_slowdown("even-slowdown")[0]
                        - r.max_slowdown("even-power")[0]) < 1e-6
          and abs(r.max_slowdown("even-slowdown")[-1]
                  - r.max_slowdown("even-power")[-1]) < 1e-6),
    Claim("fig4", "mid-range budgets show ≥25 % worst-job improvement",
          lambda r: (lambda ep, es, m: (ep[m] - es[m]) / ep[m] > 0.25)(
              r.max_slowdown("even-power"), r.max_slowdown("even-slowdown"),
              len(r.budgets) // 2,
          )),
)


def score_fig4(result) -> Scorecard:
    return evaluate(FIG4_CLAIMS, result)


# --------------------------------------------------------------------- fig 5

def _excess(r, case, job):
    mis = r.slowdowns[case]["mischaracterized"][job]
    ideal = r.slowdowns[case]["ideal"][job]
    return float(np.max(mis - ideal))


FIG5_CLAIMS = (
    Claim("fig5", "underprediction slows the unknown job itself",
          lambda r: _excess(r, "under-small", "ft(unknown)") > 0.05),
    Claim("fig5", "overprediction slows the sensitive co-scheduled job",
          lambda r: _excess(r, "over-small", "ep") > 0.02),
    Claim("fig5", "small unknown jobs suffer most under underprediction",
          lambda r: _excess(r, "under-small", "ft(unknown)")
          > _excess(r, "under-large", "ft(unknown)")),
    Claim("fig5", "large unknown jobs hurt others most under overprediction",
          lambda r: _excess(r, "over-large", "ep") > _excess(r, "over-small", "ep")),
)


def score_fig5(result) -> Scorecard:
    return evaluate(FIG5_CLAIMS, result)


# --------------------------------------------------------------------- fig 6

def _mean(r, policy, job):
    return float(np.mean(r.slowdowns[policy][job]))


FIG6_CLAIMS = (
    Claim("fig6", "performance awareness reduces BT's slowdown vs agnostic",
          lambda r: _mean(r, "Performance Aware", "bt")
          < _mean(r, "Performance Agnostic", "bt")),
    Claim("fig6", "under-estimating BT reopens the gap",
          lambda r: _mean(r, "Under-estimate bt", "bt=is")
          > _mean(r, "Performance Aware", "bt") + 0.05),
    Claim("fig6", "feedback recovers part of the under-estimate loss",
          lambda r: _mean(r, "Under-estimate bt, with feedback", "bt=is")
          < _mean(r, "Under-estimate bt", "bt=is")),
    Claim("fig6", "feedback recovers part of the over-estimate loss",
          lambda r: _mean(r, "Over-estimate sp, with feedback", "bt")
          < _mean(r, "Over-estimate sp", "bt") + 0.01),
)


def score_fig6(result) -> Scorecard:
    return evaluate(FIG6_CLAIMS, result)


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
    Claim("fig10", "tracking error stays under ~30 % at the 90th percentile",
          lambda r: max(r.tracking_90th.values()) < 0.35),
)


def score_fig10(result) -> Scorecard:
    return evaluate(FIG10_CLAIMS, result)


# -------------------------------------------------------------------- fig 11

FIG11_CLAIMS = (
    Claim("fig11", "more performance variation ⇒ more QoS degradation",
          lambda r: np.mean([r.qos90[n][-1].mean() for n in r.qos90])
          > np.mean([r.qos90[n][0].mean() for n in r.qos90])),
    Claim("fig11", "power tracking stays within the 30 %/90 % constraint",
          lambda r: float(r.tracking90.mean(axis=1).max()) < 0.30),
    Claim("fig11", "no type is near the QoS limit without variation",
          lambda r: all(r.qos90[n][0].mean() < r.qos_limit for n in r.qos90)),
)


def score_fig11(result) -> Scorecard:
    return evaluate(FIG11_CLAIMS, result)
