"""Predictive planning: the forecast drill as a tier-2 acceptance gate.

The receding-horizon planner (DESIGN.md §9) must *earn* its place on the
reactive path: against the same bursty regulation stream, the predictive
arm has to track strictly better than the reactive baseline while issuing
fewer cap rewrites — anticipation, not churn.  The adversarial arm runs the
same scenario with a forecaster rigged to predict the opposite of every
trend; the safety envelope must keep its budgets inside the ceiling and
trip to fallback within the configured error window.  Any scorecard claim
failing is a hard test failure (and a nonzero
``anor resilience --drill forecast`` exit).
"""

from repro.experiments.resilience import format_drill, run_drill
from repro.experiments.scorecard import score


def test_forecast_drill_scorecard(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_drill("forecast", duration=600.0, seed=0, warmup=120.0),
        rounds=1,
        iterations=1,
    )
    card = score("forecast", result.metrics)
    m = result.metrics
    assert card.all_passed, card.render()

    report(
        format_drill(result) + "\n\n" + card.render(),
        reactive_err90=round(m["reactive_error90"], 4),
        predictive_err90=round(m["predictive_error90"], 4),
        tracking_ratio=round(m["tracking_ratio"], 4),
        reactive_rewrites=m["reactive_rewrites"],
        predictive_rewrites=m["predictive_rewrites"],
        adversarial_fallbacks=m["adversarial_fallbacks"],
        fallback_latency=round(m["fallback_latency"], 1),
    )
