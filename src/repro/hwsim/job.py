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
from repro.geopm.agent import JobAgentGroup
from repro.geopm.profiler import EpochProfiler
from repro.geopm.report import ApplicationTotals
from repro.hwsim.node import Node
from repro.util.rng import TapeStream
from repro.workloads.nas import JobType

__all__ = ["JobPhase", "RunningJob"]

# A node's entry in the cluster's ``seat`` column is a sort key, class first:
# what the window kernel does with the node — the compute pass, idle draws
# from the job's stream until its setup timer expires and compute after,
# idle draws from the job's stream (teardown), idle draw from its own (no
# job), or leave it to the job's scalar reference.  Below the class a busy
# node carries its job's start number and its rank there; sorted, the column
# is the kernel's columns: job after job in start order, each job's ranks in
# order, and the jobs that may compute in a window (the first two classes)
# side by side.
COMPUTING, SETUP, TEARDOWN, FREE, SCALAR = range(5)
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

    ``rng`` is the job's noise stream, a row of the cluster's tape: the run
    multiplier, then per tick a jitter and a RAPL draw per rank computing, or
    a RAPL draw per rank otherwise.  ``cells`` is the cluster's node-indexed
    ``(progress, counts, barrier, ledger, seat)`` columns.  Rank ``i`` runs
    on node ``i`` of ``nodes`` and owns that row of ``progress`` (fractional
    epochs), ``counts`` (whole ones, the profiler's) and ``seat`` (the
    node's place among the kernel's columns: the job's start number
    ``serial`` and the rank, under a class written whenever :attr:`phase`
    is); what is per job — the barrier count and the three ledger rows
    ``phase_elapsed``, ``_compute_energy``, ``_compute_seconds`` — sits at
    the job's first row.  The scalar
    reference below and the cluster's window kernel read and write the same
    cells.
    """

    phase_elapsed = _LedgerCell(0)
    _compute_energy = _LedgerCell(1)
    _compute_seconds = _LedgerCell(2)

    def __init__(
        self,
        job_id: str,
        job_type: JobType,
        nodes: list[Node],
        *,
        submit_time: float,
        start_time: float,
        rng: TapeStream,
        cells: tuple[np.ndarray, ...],
        serial: int,
        run_noise: bool = True,
    ) -> None:
        if not 0 < len(nodes) <= 1 << RANK_BITS:
            raise ValueError(f"job {job_id}: needs 1 to {1 << RANK_BITS} nodes, got {len(nodes)}")
        self.job_id = job_id
        self.job_type = job_type
        self.nodes = nodes
        self.submit_time = float(submit_time)
        self.start_time = float(start_time)
        #: User-style time limit: start plus the worst-case (minimum-cap)
        #: occupancy — what the scheduler's backfill window sees.
        self.est_end = self.start_time + job_type.total_time(job_type.p_min)
        self.rng = rng
        self.profile_static = job_type.profile_static
        self.rows = np.array([n.node_id for n in nodes])
        self.root = root = int(self.rows[0])  # where the job's own cells sit
        self._progress, counts, barrier, ledger, self._seat = cells
        self._order = (serial << RANK_BITS) + np.arange(len(nodes))  # seats, less the class
        self.phase = JobPhase.SETUP
        self._progress[self.rows] = 0.0
        self._ledger = ledger[:, root]
        self._ledger[:] = 0.0
        self.profiler = EpochProfiler(
            len(nodes), cells=(counts, self.rows, barrier[root : root + 1])
        )
        self.endpoint = Endpoint(job_id=job_id)
        self.agents = JobAgentGroup([n.pio for n in nodes], self.profiler, self.endpoint)
        # Only the root node's PlatformIO can serve EPOCH_COUNT (§4.3: the
        # root agent reports the job-global epoch count to the endpoint).
        nodes[0].pio.attach_profiler(self.profiler)
        # Run-level performance coefficient: one draw per execution, giving
        # the run-to-run variance visible in Fig. 3's error bars.
        self._run_multiplier = (
            float(np.exp(rng.normal(0.0, job_type.noise))) if run_noise else 1.0
        )
        self._compute_started: float | None = None
        self._compute_finished: float | None = None
        self.end_time: float | None = None
        self._energy_at_start = sum(n.total_energy for n in nodes)
        self._energy_at_release: float | None = None

    def detach(self) -> None:
        """Copy the job's cells and its stream out of the cluster's columns
        and tape.

        A job that left the cluster is still read (``totals()`` right after
        release, a test's observables later) while its rows and nodes may
        already belong to the next job.
        """
        self._ledger = self._ledger.copy()
        self.rng.detach()
        self._seat = None
        self.profiler.detach()
        self._energy_at_release = sum(n.total_energy for n in self.nodes)

    @property
    def phase(self) -> JobPhase:
        return self._phase

    @phase.setter
    def phase(self, phase: JobPhase) -> None:
        self._phase = phase
        if self._seat is not None:
            klass = _CLASS[phase]
            if klass != FREE and not self.profile_static:
                klass = SCALAR
            self._seat[self.rows] = self._order | (klass << CLASS_SHIFT)

    @property
    def _rank_progress(self) -> np.ndarray:
        return self._progress[self.rows]

    # ------------------------------------------------------------- physics

    def advance(self, dt: float, now: float) -> None:
        """Scalar reference tick: per-node physics, then :meth:`settle`.

        The cluster's window kernel does the same physics for every job at
        once and is held bit-identical to this; it remains the only path for
        jobs the kernel cannot take (see :attr:`array_capable`).
        """
        tick_power = None
        if self.phase is JobPhase.COMPUTE:
            tick_power = self._advance_compute_nodewise(dt, now)
        else:  # setup/teardown: every node draws idle power
            for node in self.nodes:
                node.consume_idle(dt, self.rng)
        self.settle(dt, now, tick_power)

    def settle(self, dt: float, now: float, power: float | None) -> None:
        """Phase bookkeeping for a tick whose physics is already deposited.

        ``power`` is the job's realised draw over a compute tick (the
        left-to-right sum over its nodes), None in any other phase.  The
        kernel folds the same ``+=`` chains for a whole window, the compute
        ones masked to the ticks the job computed, and calls
        :meth:`turn_phase` with each turn's own tick: ``phase_elapsed`` at
        that tick before the call, its chain restarted from 0.0 after it.
        """
        if self.phase is JobPhase.DONE:
            return
        self.phase_elapsed += dt
        if power is not None:
            self._compute_energy += power * dt
            self._compute_seconds += dt
        self.turn_phase(now)

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

    def _advance_compute_nodewise(self, dt: float, now: float) -> float:
        """Reference per-node compute tick; returns the job power."""
        tick_power = 0.0
        for i, node in enumerate(self.nodes):
            row = node.node_id
            cap = node.power_cap
            frac = self._progress[row] / self.job_type.epochs
            tau = self.job_type.time_per_epoch_at(cap, frac)
            jitter = float(np.exp(self.rng.normal(0.0, self.job_type.noise)))
            rate = node.perf_multiplier / (tau * self._run_multiplier * jitter)
            self._progress[row] += rate * dt
            done_epochs = min(int(self._progress[row]), self.job_type.epochs)
            if done_epochs > self.profiler.rank_count(i):
                self.profiler.set_rank_progress(i, done_epochs, timestamp=now)
            demand = min(
                max(cap, self.job_type.p_min),
                self.job_type.power_demand_at(frac),
            )
            if self.job_type.power_wave > 0.0:
                # Epoch-periodic draw signature (compute vs. exchange phases
                # inside each iteration) — what §8's automatic epoch
                # detection listens for.
                epoch_phase = self._progress[row] % 1.0
                demand *= 1.0 + self.job_type.power_wave * np.sin(
                    2.0 * np.pi * epoch_phase
                )
            tick_power += node.consume(demand, dt, self.rng)
        return tick_power

    @property
    def array_capable(self) -> bool:
        """True when the cluster's window kernel can take this job.

        Requires a statically-profiled job type (no power wave, phase-less
        curves — see :attr:`JobType.profile_static`) and no failed nodes:
        the per-node scalar path skips RNG draws for crashed ranks, which
        the array pass cannot reproduce (in practice a crash kills the
        job before it advances again; this guard is belt and braces).  The
        cluster reads the same two facts off its columns for every job at
        once where it builds the kernel's layout.
        """
        return self.profile_static and not any(node.failed for node in self.nodes)

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
