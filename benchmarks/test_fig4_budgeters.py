"""Fig. 4: even-slowdown vs even-power budgeters across shared budgets.

Paper series: estimated slowdown of one instance of each of the 8 job types
under a budget sweep; at mid budgets the ideal budgeter roughly halves the
worst-job slowdown of even power caps (§6.1.1).  The claims checked are
``scorecard.CLAIMS["fig4"]``.
"""

from repro.experiments import fig4
from repro.experiments.scorecard import score


def test_fig4_budgeter_comparison(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig4.run_fig4(n_budgets=40), rounds=1, iterations=1
    )
    card = score("fig4", result)
    ep = result.max_slowdown("even-power")
    es = result.max_slowdown("even-slowdown")
    mid = len(ep) // 2
    report(
        fig4.format_table(result) + "\n\n" + card.render(),
        midrange_worst_even_power=round(float(ep[mid]), 4),
        midrange_worst_even_slowdown=round(float(es[mid]), 4),
        midrange_improvement=round(float((ep[mid] - es[mid]) / ep[mid]), 3),
    )
    assert card.all_passed, card.render()
