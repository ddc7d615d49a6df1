"""GEOPM-style trace files: per-control-period sample logs.

Real GEOPM can emit a trace CSV per node with one row per agent control
period.  The paper's debugging story (§7.2, timestamp alignment across
tiers) is exactly the kind of analysis these traces enable.  The framework
appends one row per agent period, the job's root-agent sample; traces
round-trip through :func:`read_trace`.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import IO

import numpy as np

from repro.geopm.agent import AgentSample

__all__ = ["JobTracer", "read_trace", "TRACE_FIELDS"]

TRACE_FIELDS = (
    "time",
    "power",
    "energy",
    "epoch_count",
    "nodes",
    "applied_cap",
)


class JobTracer:
    """Appends one CSV row per root-agent sample for a single job."""

    def __init__(self, path: str | Path, *, job_id: str = "") -> None:
        self.path = Path(path)
        self.job_id = job_id
        self._fh: IO[str] | None = None
        self._writer = None
        self.rows_written = 0

    def _ensure_open(self) -> None:
        if self._fh is None:
            self._fh = self.path.open("w", newline="")
            self._writer = csv.writer(self._fh)
            self._writer.writerow(["# geopm-style trace", self.job_id])
            self._writer.writerow(TRACE_FIELDS)

    def record(self, sample: AgentSample) -> None:
        """Append one control-period row."""
        self._ensure_open()
        self._writer.writerow(
            [
                repr(sample.timestamp),
                repr(sample.power),
                repr(sample.energy),
                sample.epoch_count,
                sample.nodes,
                repr(sample.applied_cap),
            ]
        )
        self.rows_written += 1

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "JobTracer":
        self._ensure_open()
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_trace(path: str | Path) -> np.ndarray:
    """Load a trace as a float array with :data:`TRACE_FIELDS` columns."""
    path = Path(path)
    rows: list[list[float]] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        comment = next(reader, None)
        if not comment or not comment[0].startswith("# geopm-style trace"):
            raise ValueError(f"{path}: not a trace file")
        header = next(reader, None)
        if tuple(header or ()) != TRACE_FIELDS:
            raise ValueError(f"{path}: unexpected trace header {header!r}")
        for row in reader:
            if row:
                rows.append([float(v) for v in row])
    if not rows:
        return np.empty((0, len(TRACE_FIELDS)))
    return np.asarray(rows)
