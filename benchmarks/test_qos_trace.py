"""§5.2: the QoS-constant justification from queue-trace statistics.

The paper justifies Q = 5 at 90 % by measuring a month of real queue data
whose 90th-percentile wait/execution ratio exceeds 22, making Q = 5 strictly
more aggressive.  We regenerate the check from the synthetic heavy-tailed
trace that stands in for that data.  The claims checked are
``scorecard.CLAIMS["qos"]``.
"""

from repro.aqa.qos import generate_queue_trace, wait_exec_ratio_percentile
from repro.experiments.scorecard import score


def test_qos_constant_justification(benchmark, report):
    trace = benchmark.pedantic(
        lambda: generate_queue_trace(50_000, seed=0), rounds=1, iterations=1
    )
    card = score("qos", trace)
    ratio90 = wait_exec_ratio_percentile(trace, 90.0)
    report(
        f"queue-trace 90th-pct wait/exec ratio: {ratio90:.1f} (paper: > 22)\n\n"
        + card.render(),
        ratio90=round(float(ratio90), 2),
    )
    assert card.all_passed, card.render()
