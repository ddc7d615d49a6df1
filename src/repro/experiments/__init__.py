"""One module per paper figure; each regenerates the figure's rows/series.

Every module exposes a ``run_figN`` entry point returning a result dataclass
with the same series the paper plots, plus ``format_table`` helpers used by
the benchmark harnesses to print paper-vs-measured comparisons.  Defaults
match the paper's parameters; benchmarks pass scaled-down knobs (fewer
trials, shorter schedules) to keep runtimes reasonable.
"""

from repro._lazy import lazy_exports

# Each exported name is a submodule, imported on first attribute access.
_, __getattr__, __dir__ = lazy_exports(__name__, {})
__all__ = ["fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11", "resilience"]
