"""Trust boundary: byzantine drill and chaos soak acceptance runs.

Acceptance runs for the cap-compliance auditor: the byzantine drill pits
two wedged-open actuators and one fabricated-model endpoint against the
audit-on manager (which must quarantine every rogue within the detection
bound with zero collateral damage and hold facility power at target) and
against the audit-off manager (which must visibly overshoot — proving the
drill actually bites).  The short chaos soak then churns randomized fault
cocktails through the audited manager and requires every online invariant
monitor to stay silent.
"""

from repro.experiments.resilience import format_drill, run_drill
from repro.experiments.scorecard import score


def test_byzantine_drill_scorecard(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_drill("byzantine", duration=900.0, seed=3),
        rounds=1,
        iterations=1,
    )
    card = score("byzantine", result.metrics)
    m = result.metrics
    assert card.all_passed, card.render()

    report(
        format_drill(result) + "\n\n" + card.render(),
        victims=len(m["victims"]),
        detection_latencies={
            k: round(v, 1) for k, v in m["detection_latencies"].items()
        },
        on_settled_mean=round(m["on_settled_mean"], 2),
        off_detect_mean=round(m["off_detect_mean"], 2),
        energy_ratio=round(
            m["off_total_energy"] / max(m["on_total_energy"], 1e-9), 3
        ),
    )


def test_chaos_soak_invariants_hold(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_drill("soak", episodes=180, seed=7),
        rounds=1,
        iterations=1,
    )
    card = score("soak", result.metrics)
    m = result.metrics
    assert m["total_faults"] > 0
    assert card.all_passed, card.render()

    report(
        format_drill(result) + "\n\n" + card.render(),
        episodes=len(m["episodes"]),
        total_faults=m["total_faults"],
        quarantines=m["quarantines"],
        violations=len(m["violations"]),
    )
