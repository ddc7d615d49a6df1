"""Head-node crash recovery: checkpoint/journal + warm reconciliation.

Acceptance run for the durable cluster tier: the head node dies mid-run
(taking the queue, budget accounting, and every validated model with it)
and a supervised restart recovers from the checkpoint + journal.  Scored
against a no-crash golden run of the identical workload under a static
target: no job lost, none admitted twice, planned draw never over the
ceiling, live jobs reconciled warm, and the power trace re-converging
within the documented bound.
"""

from repro.experiments.resilience import format_drill, run_drill
from repro.experiments.scorecard import score


def test_headnode_crash_recovery(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_drill(
            "headnode", duration=1200.0, seed=1, crash_time=400.0, down_for=60.0
        ),
        rounds=1,
        iterations=1,
    )
    card = score("headnode", result.metrics)
    m = result.metrics
    assert card.all_passed, card.render()

    report(
        format_drill(result) + "\n\n" + card.render(),
        recovery_merges=m["recovery_merges"],
        checkpoints_written=m["checkpoints_written"],
        convergence_time=m["convergence_time"],
        orphans=len(m["orphaned"]),
    )
