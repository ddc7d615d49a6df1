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
from typing import Sequence

import numpy as np

from repro.geopm.endpoint import Endpoint
from repro.geopm.agent import JobAgentGroup
from repro.geopm.profiler import EpochProfiler
from repro.geopm.report import ApplicationTotals
from repro.hwsim.node import Node
from repro.workloads.nas import JobType

__all__ = ["JobPhase", "RunningJob"]


class JobPhase(enum.Enum):
    SETUP = "setup"
    COMPUTE = "compute"
    TEARDOWN = "teardown"
    DONE = "done"
    KILLED = "killed"  # terminated by a node failure; produces no totals


class RunningJob:
    """One executing job: physics state plus its GEOPM plumbing."""

    def __init__(
        self,
        job_id: str,
        job_type: JobType,
        nodes: list[Node],
        *,
        submit_time: float,
        start_time: float,
        rng: np.random.Generator,
        progress: np.ndarray,
        agent_fanout: int = 8,
        run_noise: bool = True,
    ) -> None:
        if not nodes:
            raise ValueError(f"job {job_id}: needs at least one node")
        self.job_id = job_id
        self.job_type = job_type
        self.nodes = nodes
        self.submit_time = float(submit_time)
        self.start_time = float(start_time)
        #: User-style time limit: start plus the worst-case (minimum-cap)
        #: occupancy — what the scheduler's backfill window sees.
        self.est_end = self.start_time + job_type.total_time(job_type.p_min)
        self.rng = rng
        self.phase = JobPhase.SETUP
        self.phase_elapsed = 0.0
        self.profiler = EpochProfiler(num_ranks=len(nodes))
        self.endpoint = Endpoint(job_id=job_id)
        self.agents = JobAgentGroup(
            [n.pio for n in nodes], self.profiler, self.endpoint, fanout=agent_fanout
        )
        # Only the root node's PlatformIO can serve EPOCH_COUNT (§4.3: the
        # root agent reports the job-global epoch count to the endpoint).
        nodes[0].pio.attach_profiler(self.profiler)
        # Run-level performance coefficient: one draw per execution, giving
        # the run-to-run variance visible in Fig. 3's error bars.
        self._run_multiplier = (
            float(np.exp(rng.normal(0.0, job_type.noise))) if run_noise else 1.0
        )
        # Fractional epoch progress per rank (rank i ↔ node i) lives in the
        # cluster's node-indexed ``progress`` column, at this job's ``rows``.
        self.rows = np.array([n.node_id for n in nodes])
        self._progress = progress
        self.profile_static = job_type.profile_static
        self._compute_started: float | None = None
        self._compute_finished: float | None = None
        self.end_time: float | None = None
        self._energy_at_start = sum(n.total_energy for n in nodes)
        self._compute_energy = 0.0
        self._compute_seconds = 0.0

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
        self.settle(dt, now, [tick_power])

    def settle(self, dt: float, now: float, powers: Sequence[float | None]) -> None:
        """Phase bookkeeping for ticks whose physics is already deposited.

        ``powers`` has one entry per tick, the last of them at ``now``: the
        job's realised draw over a compute tick (the left-to-right sum over
        its nodes), None in any other phase.  Only the last tick can change
        the phase — the cluster ends its windows at the first tick that can
        (see :meth:`ticks_to_timer` for the timers; epoch completion is read
        off the drawn trajectory) — so the checks run once, after the folds.
        """
        if self.phase is JobPhase.DONE:
            return
        for power in powers:  # the per-tick += chains, verbatim
            self.phase_elapsed += dt
            if power is not None:
                self._compute_energy += power * dt
                self._compute_seconds += dt
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
        elif self.phase_elapsed >= self.job_type.teardown_time:
            self.phase = JobPhase.DONE
            self.end_time = now

    def ticks_to_timer(self, dt: float, limit: int) -> int:
        """Ticks (at most ``limit``) up to and including the one on which
        this setup/teardown job's timer expires: :meth:`settle`'s own
        ``phase_elapsed`` chain and comparison, run ahead."""
        jt = self.job_type
        expiry = jt.setup_time if self.phase is JobPhase.SETUP else jt.teardown_time
        elapsed = self.phase_elapsed
        for ticks in range(1, limit):
            elapsed += dt
            if elapsed >= expiry:
                return ticks
        return limit

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
            if done_epochs > self.profiler.rank_counts[i]:
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
        job before it advances again; this guard is belt and braces).
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
        avg_power = self._compute_energy / self._compute_seconds if self._compute_seconds else 0.0
        return ApplicationTotals(
            job_id=self.job_id,
            job_type=self.job_type.name,
            nodes=len(self.nodes),
            runtime=runtime,
            sojourn=self.end_time - self.submit_time,
            energy=sum(n.total_energy for n in self.nodes) - self._energy_at_start,
            epoch_count=self.profiler.epoch_count,
            average_power=avg_power,
        )
