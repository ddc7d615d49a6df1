"""A job instance executing on emulated nodes.

The job advances through setup → compute → teardown phases (§7.2 documents
why setup/teardown matters: short jobs hold nodes at low power for a large
share of their batch-system residency).  During compute, each node's rank
makes epoch progress at the ground-truth rate for the node's current power
cap, scaled by the node's performance-variation multiplier and a run-level
noise coefficient; the job-global epoch count advances when the slowest rank
finishes an iteration (GEOPM's all-processes barrier semantics).
"""

from __future__ import annotations

import enum

import numpy as np

from repro.geopm.endpoint import Endpoint
from repro.geopm.profiler import EpochProfiler
from repro.geopm.report import ApplicationTotals
from repro.hwsim.node import Node
from repro.util.rng import TapeStream
from repro.workloads.nas import JobType

__all__ = ["JobPhase", "RunningJob"]

# A node's entry in the cluster's ``seat`` column is a sort key, class first:
# what the window kernel does with the node — the compute pass, idle draws
# from the job's stream until its setup timer expires and compute after,
# idle draws from the job's stream (teardown), or idle draw from its own (no
# job).  Below the class a busy node carries its job's start number and its
# rank there; sorted, the column is the kernel's columns: job after job in
# start order, each job's ranks in order, and the jobs that may compute in a
# window (the first two classes) side by side.
COMPUTING, SETUP, TEARDOWN, FREE = range(4)
CLASS_SHIFT, RANK_BITS = 56, 16


class JobPhase(enum.Enum):
    SETUP = "setup"
    COMPUTE = "compute"
    TEARDOWN = "teardown"
    DONE = "done"
    KILLED = "killed"  # terminated by a node failure; produces no totals


_CLASS = {
    JobPhase.SETUP: SETUP,
    JobPhase.COMPUTE: COMPUTING,
    JobPhase.TEARDOWN: TEARDOWN,
    JobPhase.DONE: FREE,
    JobPhase.KILLED: FREE,
}


class _LedgerCell:
    """A float attribute of a job kept in entry ``index`` of its ``_ledger``."""

    def __init__(self, index: int) -> None:
        self.index = index

    def __get__(self, job: RunningJob | None, owner: type | None = None):
        return self if job is None else float(job._ledger[self.index])

    def __set__(self, job: RunningJob, value: float) -> None:
        job._ledger[self.index] = value


class RunningJob:
    """One executing job: physics state plus its GEOPM plumbing.

    A view of the cluster's columns, which :meth:`EmulatedCluster.start_job`
    writes before it binds one: seats in the setup class, and zero progress,
    counts, barrier and ledger.  ``rng`` is the job's noise stream, a row of
    the cluster's tape: the run multiplier (its first draw, given as
    ``run_multiplier``), then per tick a jitter and a RAPL draw per rank
    computing, or a RAPL draw per rank otherwise.  ``cells`` is the
    cluster's node-indexed ``(progress, counts, barrier, ledger, seat)``
    columns, its epoch log (the job's times are logged under ``serial``),
    and the job's endpoint cells (its root agent's,
    ``JobAgentGroup.start``).  Rank ``i`` runs on node ``rows[i]``, the
    ``i``-th of ``nodes`` (``at`` indexes the rows: a slice where they run
    in order), and owns that row of ``progress`` (fractional epochs),
    ``counts`` (whole ones, the profiler's) and ``seat`` (the node's place
    among the kernel's columns: the job's start number ``serial`` and the
    rank, under a class written whenever :attr:`phase` is); what is per job
    — the barrier count and the three ledger rows ``phase_elapsed``,
    ``_compute_energy``, ``_compute_seconds`` — sits at the job's first
    row.  The cluster's window kernel reads and writes those cells.
    ``energy`` is the nodes' energy at the start.
    """

    phase_elapsed = _LedgerCell(0)
    _compute_energy = _LedgerCell(1)
    _compute_seconds = _LedgerCell(2)

    def __init__(
        self,
        job_id: str,
        job_type: JobType,
        nodes: list[Node],
        rows: np.ndarray,
        at: slice | np.ndarray,
        *,
        submit_time: float,
        start_time: float,
        rng: TapeStream,
        cells: tuple[np.ndarray, ...],
        serial: int,
        run_multiplier: float,
        energy: float,
    ) -> None:
        self.job_id = job_id
        self.job_type = job_type
        self.nodes = nodes
        self.submit_time = float(submit_time)
        self.start_time = float(start_time)
        self.rng = rng
        self.rows = rows
        self.at = at
        self.root = root = int(rows[0])  # where the job's own cells sit
        self._progress, counts, barrier, ledger, self._seat, stamps, mailbox = cells
        self._order = serial << RANK_BITS  # a seat less the class and the rank
        self._ranks = np.arange(rows.size)
        self._phase = JobPhase.SETUP  # the class of the seats the cluster wrote
        self._ledger = ledger[:, root]
        self.profiler = EpochProfiler(
            rows.size, cells=(counts, rows, barrier[root : root + 1], stamps), key=serial
        )
        self.endpoint = Endpoint(job_id=job_id, cells=mailbox)
        # Only the root node's PlatformIO can serve EPOCH_COUNT (§4.3: the
        # root agent reports the job-global epoch count to the endpoint).
        nodes[0].pio.attach_profiler(self.profiler)
        self._run_multiplier = run_multiplier
        self._compute_started: float | None = None
        self._compute_finished: float | None = None
        self.end_time: float | None = None
        self._energy_at_start = energy
        self._energy_at_release: float | None = None

    def detach(self, energy: float) -> None:
        """Copy the job's cells and its stream out of the cluster's columns
        and tape, and close its key in the epoch log; ``energy`` is its
        nodes' energy now.

        A job that left the cluster is still read (``totals()`` right after
        release, a test's observables later) while its rows and nodes may
        already belong to the next job.  Its epoch times stay in the log,
        which hands them over when it drops them (``EpochLog.close``).
        """
        self._ledger = self._ledger.copy()
        self.rng.detach()
        self._seat = None
        self.profiler.detach()
        self.endpoint.detach()
        self._energy_at_release = energy

    @property
    def phase(self) -> JobPhase:
        return self._phase

    @phase.setter
    def phase(self, phase: JobPhase) -> None:
        self._phase = phase
        if self._seat is not None:
            self._seat[self.at] = self._ranks + (self._order | _CLASS[phase] << CLASS_SHIFT)

    @property
    def _rank_progress(self) -> np.ndarray:
        return self._progress[self.rows]

    # ----------------------------------------------------------- lifecycle

    def turn_phase(self, now: float) -> None:
        """Move to the next phase if the tick that ended at ``now`` earned it."""
        if self.phase is JobPhase.SETUP:
            if self.phase_elapsed >= self.job_type.setup_time:
                self.phase = JobPhase.COMPUTE
                self.phase_elapsed = 0.0
                self._compute_started = now
        elif self.phase is JobPhase.COMPUTE:
            if self.profiler.epoch_count >= self.job_type.epochs:
                self.phase = JobPhase.TEARDOWN
                self.phase_elapsed = 0.0
                self._compute_finished = now
        elif self.phase is JobPhase.TEARDOWN:
            if self.phase_elapsed >= self.job_type.teardown_time:
                self.phase = JobPhase.DONE
                self.end_time = now

    def kill(self, now: float) -> None:
        """Terminate the job mid-run (node crash took a rank with it).

        A killed job never reaches :meth:`totals` — its partial epoch
        progress is lost, exactly as when a real MPI rank dies and the whole
        job aborts.  The cluster releases the surviving nodes.
        """
        self.phase = JobPhase.KILLED
        self.end_time = now

    # ------------------------------------------------------------- queries

    @property
    def is_done(self) -> bool:
        return self.phase is JobPhase.DONE

    @property
    def progress(self) -> float:
        """Job-global fraction of epochs completed, in [0, 1]."""
        return self.profiler.epoch_count / self.job_type.epochs

    @property
    def compute_runtime(self) -> float | None:
        """Seconds in the compute phase, once finished (GEOPM report basis)."""
        if self._compute_started is None or self._compute_finished is None:
            return None
        return self._compute_finished - self._compute_started

    def totals(self) -> ApplicationTotals:
        """Application Totals for the completed job (paper §5.4)."""
        if not self.is_done or self.end_time is None:
            raise RuntimeError(f"job {self.job_id} has not completed")
        runtime = self.compute_runtime or 0.0
        energy_now = self._energy_at_release
        if energy_now is None:  # done but not released: stepped outside a cluster
            energy_now = sum(n.total_energy for n in self.nodes)
        avg_power = self._compute_energy / self._compute_seconds if self._compute_seconds else 0.0
        return ApplicationTotals(
            job_id=self.job_id,
            job_type=self.job_type.name,
            nodes=len(self.nodes),
            runtime=runtime,
            sojourn=self.end_time - self.submit_time,
            energy=energy_now - self._energy_at_start,
            epoch_count=self.profiler.epoch_count,
            average_power=avg_power,
        )
