"""CSV exporters for experiment results.

Every figure harness returns structured results; these helpers write the
plotted series as plain CSV so the figures can be regenerated in any
plotting tool without rerunning the experiments.  One file per figure,
columns named after the paper's axes.
"""

from __future__ import annotations

import csv
from pathlib import Path

import numpy as np

__all__ = [
    "export_power_trace",
    "export_series_by_key",
    "export_fig4",
    "export_fig5",
    "export_fig9",
    "export_fig11",
]


def export_power_trace(trace: np.ndarray, path: str | Path) -> None:
    """Write a (time, target, measured) trace — Fig. 9's two series."""
    trace = np.asarray(trace, dtype=float)
    if trace.ndim != 2 or trace.shape[1] != 3:
        raise ValueError(f"expected (n, 3) trace, got {trace.shape}")
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["time_s", "target_w", "measured_w"])
        for row in trace:
            writer.writerow([f"{v:.3f}" for v in row])


def export_series_by_key(
    x: np.ndarray,
    series: dict[str, np.ndarray],
    path: str | Path,
    *,
    x_name: str = "x",
) -> None:
    """Write one x column plus one column per keyed series."""
    x = np.asarray(x, dtype=float)
    keys = sorted(series)
    for key in keys:
        if len(series[key]) != x.size:
            raise ValueError(
                f"series {key!r} has {len(series[key])} points, x has {x.size}"
            )
    with Path(path).open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([x_name] + keys)
        for i in range(x.size):
            writer.writerow(
                [f"{x[i]:.6g}"] + [f"{float(series[k][i]):.6g}" for k in keys]
            )


def export_fig4(result, path: str | Path) -> None:
    """Fig. 4: per-type slowdown vs budget, one column per policy/type."""
    series: dict[str, np.ndarray] = {}
    for policy, by_type in result.slowdowns.items():
        for type_name, values in by_type.items():
            series[f"{policy}/{type_name}"] = values
    export_series_by_key(result.budgets, series, path, x_name="budget_w")


def export_fig5(result, directory: str | Path) -> list[Path]:
    """Fig. 5: one CSV per subplot case; returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for case_key, by_budgeter in result.slowdowns.items():
        series: dict[str, np.ndarray] = {}
        for budgeter, by_job in by_budgeter.items():
            for job_id, values in by_job.items():
                series[f"{budgeter}/{job_id}"] = values
        path = directory / f"fig5_{case_key}.csv"
        export_series_by_key(result.budgets[case_key], series, path, x_name="budget_w")
        written.append(path)
    return written


def export_fig9(result, path: str | Path) -> None:
    """Fig. 9: target and measured cluster power over the hour."""
    export_power_trace(result.result.power_trace, path)


def export_fig11(result, path: str | Path) -> None:
    """Fig. 11: mean 90th-pct QoS degradation per type vs variation band."""
    bands = np.asarray(result.bands, dtype=float)
    series = {
        name: result.qos90[name].mean(axis=1) for name in sorted(result.qos90)
    }
    series["tracking_err90"] = result.tracking90.mean(axis=1)
    export_series_by_key(bands, series, path, x_name="variation_band")
