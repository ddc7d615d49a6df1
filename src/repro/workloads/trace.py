"""Job-schedule records and file I/O.

The paper's cluster-tier process "reads power targets and a job submission
schedule from files" for experimental repeatability (§4.1).  This module
defines the schedule record type and a simple CSV format so experiments can
round-trip schedules to disk.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

__all__ = ["JobRequest", "Schedule", "save_schedule", "load_schedule"]


@dataclass(frozen=True)
class JobRequest:
    """A single job submission: when, what, and how many nodes.

    The one record of a submitted job on both platforms: the emulated
    cluster's queue, launched set and checkpoint hold it as submitted (a
    checkpoint or journal spec is its fields), and tabsim's work queues hold
    it too.  ``claimed_type`` is what the submission metadata tells the
    cluster tier the job is (Figs. 7–8 misclassify it); empty means the
    truth, ``type_name``.
    """

    submit_time: float
    job_id: str
    type_name: str
    nodes: int
    claimed_type: str = ""

    def __post_init__(self) -> None:
        if self.submit_time < 0:
            raise ValueError(f"submit_time must be ≥ 0, got {self.submit_time}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be ≥ 1, got {self.nodes}")
        if not self.claimed_type:
            object.__setattr__(self, "claimed_type", self.type_name)


@dataclass
class Schedule:
    """An ordered collection of job submissions over a time window."""

    requests: list[JobRequest] = field(default_factory=list)
    duration: float = 0.0
    start_time: float = 0.0

    def __post_init__(self) -> None:
        self.requests = sorted(self.requests, key=lambda r: (r.submit_time, r.job_id))

    def __len__(self) -> int:
        return len(self.requests)

    def __iter__(self) -> Iterator[JobRequest]:
        return iter(self.requests)

    def between(self, t0: float, t1: float) -> list[JobRequest]:
        """Submissions with t0 ≤ submit_time < t1."""
        return [r for r in self.requests if t0 <= r.submit_time < t1]

    def type_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for r in self.requests:
            counts[r.type_name] = counts.get(r.type_name, 0) + 1
        return counts

    @property
    def end_time(self) -> float:
        return self.start_time + self.duration


_FIELDS = ["submit_time", "job_id", "type_name", "nodes"]


def save_schedule(schedule: Schedule, path: str | Path) -> None:
    """Write a schedule as CSV with a header row.

    ``claimed_type`` is the last column, so a file written before it
    existed (six columns) still loads, each job claiming its true type.
    """
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_FIELDS + ["duration", "start_time", "claimed_type"])
        for i, req in enumerate(schedule.requests):
            extras = (
                [repr(schedule.duration), repr(schedule.start_time)] if i == 0 else ["", ""]
            )
            writer.writerow(
                [repr(req.submit_time), req.job_id, req.type_name, req.nodes]
                + extras + [req.claimed_type]
            )
        if not schedule.requests:
            writer.writerow(
                ["", "", "", "", repr(schedule.duration), repr(schedule.start_time), ""]
            )


def load_schedule(path: str | Path) -> Schedule:
    """Read a schedule written by :func:`save_schedule`."""
    path = Path(path)
    requests: list[JobRequest] = []
    duration = 0.0
    start_time = 0.0
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[: len(_FIELDS)] != _FIELDS:
            raise ValueError(f"{path}: not a schedule file (header {header!r})")
        for row in reader:
            if len(row) >= 6 and row[4]:
                duration = float(row[4])
                start_time = float(row[5])
            if row[0] == "":
                continue
            requests.append(
                JobRequest(
                    submit_time=float(row[0]),
                    job_id=row[1],
                    type_name=row[2],
                    nodes=int(row[3]),
                    claimed_type=row[6] if len(row) > 6 else "",
                )
            )
    return Schedule(requests=requests, duration=duration, start_time=start_time)
