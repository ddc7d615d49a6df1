"""The paper's figures as data: how each ``anor figN`` command runs.

A :class:`Figure` row names the figure's run function and, for Figs. 4, 9
and 11, its CSV writer by import path, so importing the table loads no
figure module; the table formatter is the ``format_table`` beside the run
function.  The paper's scale is the run function's own defaults, seed
included, and no row restates it: ``quick`` is what ``--quick`` overrides
and ``bench`` what the figure's bench overrides, the scale at which its
rows of ``scorecard.CLAIMS`` hold.  The CLI and every
``benchmarks/test_fig*.py`` run a figure through :func:`run`.
"""

from __future__ import annotations

import importlib
import inspect
from dataclasses import dataclass, field
from typing import Callable, Mapping

__all__ = ["FIGURES", "Figure", "format_table", "report", "run"]


@dataclass(frozen=True)
class Figure:
    """One figure command, as data.  See the module docstring."""

    help: str
    run: str  # "module:function" returning the figure's result
    csv: str | None = None  # "module:function" writing (result, path)
    quick: Mapping = field(default_factory=dict)
    bench: Mapping = field(default_factory=dict)


FIGURES: dict[str, Figure] = {
    "fig3": Figure(
        "power-performance characterization curves + fit R²",
        "repro.experiments.fig3:characterize_job_types",
        quick={"runs_per_cap": 3, "tick": 0.5}, bench={"runs_per_cap": 5, "tick": 0.5},
    ),
    "fig4": Figure(
        "budgeter comparison across shared budgets",
        "repro.experiments.fig4:run_fig4",
        csv="repro.analysis.export:export_fig4", quick={"n_budgets": 15},
    ),
    "fig5": Figure(
        "misclassification cost (under/over × small/large)",
        "repro.experiments.fig5:run_fig5",
        quick={"n_budgets": 12},
    ),
    "fig6": Figure(
        "BT+SP pair under a static 840 W budget",
        "repro.experiments.fig6:run_fig6",
        quick={"trials": 1}, bench={"tick": 1.0},
    ),
    "fig7": Figure(
        "BT+BT pair, one misclassified as IS",
        "repro.experiments.fig6:run_fig7",
        quick={"trials": 1}, bench={"tick": 1.0},
    ),
    "fig8": Figure(
        "SP+SP pair, one misclassified as EP",
        "repro.experiments.fig6:run_fig8",
        quick={"trials": 2}, bench={"tick": 1.0},
    ),
    "fig9": Figure(
        "1-hour time-varying power target tracking",
        "repro.experiments.fig9:run_fig9",
        csv="repro.analysis.export:export_fig9",
        quick={"duration": 900.0}, bench={"duration": 2400.0},
    ),
    "fig10": Figure(
        "per-type slowdown under the 1-hour schedule",
        "repro.experiments.fig10:run_fig10",
        quick={"duration": 1200.0}, bench={"duration": 1800.0},
    ),
    "fig11": Figure(
        "QoS degradation vs performance variation (tabsim)",
        "repro.experiments.fig11:run_fig11",
        csv="repro.analysis.export:export_fig11",
        quick={"trials": 2, "duration": 1800.0}, bench={"trials": 4, "duration": 2700.0},
    ),
}


def _load(path: str, name: str | None = None) -> Callable:
    """The function at ``path``, or the one called ``name`` beside it."""
    module, default = path.split(":")
    return getattr(importlib.import_module(module), name or default)


def run(name: str, scale: str = "paper", seed: int | None = None) -> object:
    """Run figure ``name`` at ``scale``: ``"paper"``, ``"quick"`` or ``"bench"``.
    ``seed=None`` keeps the run function's own; Figs. 4 and 5 take none."""
    figure = FIGURES[name]
    overrides = {"paper": {}, "quick": figure.quick, "bench": figure.bench}[scale]
    fn = _load(figure.run)
    if seed is not None and "seed" in inspect.signature(fn).parameters:
        overrides = {**overrides, "seed": seed}
    return fn(**overrides)


def format_table(name: str, result: object) -> str:
    """Figure ``name``'s paper-vs-measured table of ``result``."""
    return _load(FIGURES[name].run, "format_table")(result)


def report(name: str, quick: bool, seed: int | None, csv_path: str | None = None) -> str:
    """What ``anor <name>`` prints: the table of one run at the paper's scale
    (or ``--quick``'s), after writing the plotted series to ``csv_path``."""
    result = run(name, "quick" if quick else "paper", seed)
    if csv_path is not None:
        _load(FIGURES[name].csv)(result, csv_path)
    return format_table(name, result)
