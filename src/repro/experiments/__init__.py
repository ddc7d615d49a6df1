"""One module per paper figure; each regenerates the figure's rows/series.

Every module exposes a ``run_figN`` entry point (Fig. 3's is
``characterize_job_types``) returning a result dataclass with the same
series the paper plots, plus a ``format_table`` that prints the
paper-vs-measured comparison.  Defaults match the paper's parameters;
``figures.FIGURES`` holds the overrides of ``--quick`` and of the benches.
"""

from repro._lazy import lazy_exports

# Each exported name is a submodule, imported on first attribute access.
_, __getattr__, __dir__ = lazy_exports(__name__, {})
__all__ = ["fig3", "fig4", "fig5", "fig6", "fig9", "fig10", "fig11", "figures", "resilience"]
