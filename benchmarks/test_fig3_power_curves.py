"""Fig. 3 + §5.1: characterization curves and model-fit R² per job type.

Paper series: relative execution time at per-node caps 140–280 W for the
eight NPB types (error bars over 10 runs), and fit R² scores (most ≥ 0.97;
IS 0.92, MG 0.94, SP 0.84).  The claims checked are
``scorecard.CLAIMS["fig3"]``.
"""

from repro.experiments import fig3
from repro.experiments.scorecard import score


def test_fig3_characterization(benchmark, report):
    result = benchmark.pedantic(
        lambda: fig3.characterize_job_types(
            caps=[140.0, 160.0, 180.0, 200.0, 220.0, 240.0, 260.0, 280.0],
            runs_per_cap=5,  # paper uses 10; 5 keeps the bench quick
            seed=0,
            tick=0.5,
        ),
        rounds=1,
        iterations=1,
    )
    card = score("fig3", result)
    rel140 = {n: result.relative_times(n)[0][0] for n in result.runtimes}
    report(
        fig3.format_table(result) + "\n\n" + card.render(),
        ep_rel_140=round(rel140["ep"], 3),
        is_rel_140=round(rel140["is"], 3),
        sp_r2=round(result.r2["sp"], 3),
    )
    assert card.all_passed, card.render()
