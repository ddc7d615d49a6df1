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
from dataclasses import dataclass

import numpy as np

from repro.geopm.endpoint import Endpoint
from repro.geopm.agent import JobAgentGroup
from repro.geopm.profiler import EpochProfiler
from repro.geopm.report import ApplicationTotals
from repro.hwsim.node import Node
from repro.workloads.nas import JobType

__all__ = ["JobPhase", "RunningJob", "StridePlan", "plan_stride_batch"]

class JobPhase(enum.Enum):
    SETUP = "setup"
    COMPUTE = "compute"
    TEARDOWN = "teardown"
    DONE = "done"
    KILLED = "killed"  # terminated by a node failure; produces no totals


@dataclass
class StridePlan:
    """The fully realised effects of advancing one job across several ticks.

    Produced by :func:`plan_stride_batch` without touching job state (only
    the job's RNG stream moves), applied by :meth:`RunningJob.commit_stride`.
    The plan/commit split lets the cluster truncate every job's stride to
    the earliest phase transition before anything is applied — matching the
    tick loop, which pops a finishing job before any later tick runs.
    """

    ticks: int  # ticks actually planned (≤ len(times) given)
    finished: bool  # job reached DONE at tick ``ticks - 1``
    powers: np.ndarray  # (ticks, nodes) realised per-node draw per tick
    phase: "JobPhase"  # state after the final planned tick …
    phase_elapsed: float
    rank_progress: np.ndarray
    # (tick_index, rank, cumulative_count) in exact per-tick call order.
    profiler_updates: list
    compute_started_at: float | None
    compute_finished_at: float | None
    end_at: float | None
    # Per-tick job power over the plan's compute ticks (None without any);
    # feeds the job's compute-energy/seconds accumulators on commit.
    compute_tick_power: np.ndarray | None


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

        The cluster's fleet pass does the same physics for every job at once
        and is held bit-identical to this; it remains the only path for jobs
        the pass cannot take (see :attr:`array_capable`).
        """
        tick_power = None
        if self.phase is JobPhase.COMPUTE:
            tick_power = self._advance_compute_nodewise(dt, now)
        else:  # setup/teardown: every node draws idle power
            for node in self.nodes:
                node.consume_idle(dt, self.rng)
        self.settle(dt, now, tick_power)

    def settle(self, dt: float, now: float, tick_power: float | None) -> None:
        """Phase bookkeeping for one tick whose physics is already deposited.

        ``tick_power`` is the job's realised draw over a compute tick (the
        left-to-right sum over its nodes), None in any other phase.
        """
        if self.phase is JobPhase.DONE:
            return
        self.phase_elapsed += dt
        if self.phase is JobPhase.SETUP:
            if self.phase_elapsed >= self.job_type.setup_time:
                self.phase = JobPhase.COMPUTE
                self.phase_elapsed = 0.0
                self._compute_started = now
        elif self.phase is JobPhase.COMPUTE:
            self._compute_energy += tick_power * dt
            self._compute_seconds += dt
            if self.profiler.epoch_count >= self.job_type.epochs:
                self.phase = JobPhase.TEARDOWN
                self.phase_elapsed = 0.0
                self._compute_finished = now
        elif self.phase_elapsed >= self.job_type.teardown_time:
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

    # ------------------------------------------------------ stride stepping

    @property
    def array_capable(self) -> bool:
        """True when the array paths (fleet pass, stride planner) can take this job.

        Requires a statically-profiled job type (no power wave, phase-less
        curves — see :attr:`JobType.profile_static`) and no failed nodes:
        the per-node scalar path skips RNG draws for crashed ranks, which
        the array paths cannot reproduce (in practice a crash kills the
        job before it advances again; this guard is belt and braces).
        """
        return self.profile_static and not any(node.failed for node in self.nodes)

    @property
    def stride_capable(self) -> bool:
        """True when this job can be advanced analytically across a stride."""
        return (
            self.phase in (JobPhase.SETUP, JobPhase.COMPUTE, JobPhase.TEARDOWN)
            and self.array_capable
        )

    def commit_stride(self, plan: StridePlan, times: np.ndarray, dt: float) -> None:
        """Apply a :class:`StridePlan` (node energy, profiler, phase state)."""
        for j, node in enumerate(self.nodes):
            node.deposit_series(plan.powers[:, j], dt)
        for k, rank, count in plan.profiler_updates:
            self.profiler.set_rank_progress(rank, count, timestamp=float(times[k]))
        self._progress[self.rows] = plan.rank_progress
        self.phase = plan.phase
        self.phase_elapsed = plan.phase_elapsed
        if plan.compute_started_at is not None:
            self._compute_started = plan.compute_started_at
        if plan.compute_finished_at is not None:
            self._compute_finished = plan.compute_finished_at
        if plan.end_at is not None:
            self.end_time = plan.end_at
        if plan.compute_tick_power is not None:
            deposits = plan.compute_tick_power * dt
            if deposits.size < 64:
                # Short strides: scalar left-to-right adds — the same IEEE
                # chain as the cumsum fold — without the ufunc setup cost.
                energy = self._compute_energy
                seconds = self._compute_seconds
                for j in deposits.tolist():
                    energy += j
                    seconds += dt
                self._compute_energy = energy
                self._compute_seconds = seconds
            else:
                chain = np.empty(deposits.size + 1)
                chain[0] = self._compute_energy
                chain[1:] = deposits
                self._compute_energy = float(np.cumsum(chain)[-1])
                chain = np.empty(deposits.size + 1)
                chain[0] = self._compute_seconds
                chain[1:] = dt
                self._compute_seconds = float(np.cumsum(chain)[-1])

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
    def was_killed(self) -> bool:
        return self.phase is JobPhase.KILLED

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


def plan_stride_batch(
    fleet, jobs: list[RunningJob], times: np.ndarray, dt: float
) -> tuple[int, list[StridePlan]]:
    """Plan one stride for every running job in one batched computation.

    ``fleet`` is the :class:`~repro.hwsim.cluster.EmulatedCluster` whose
    node-indexed columns hold the jobs' caps, model constants and progress.

    Bit-identical to running :meth:`RunningJob.advance` at each instant in
    ``times`` for the stride length it returns: per-job quantities are
    column blocks of one concatenated matrix computation whose elementwise
    expressions mirror the per-tick operations (same IEEE ops in the same
    order), sequential accumulations (rank progress, ``phase_elapsed``,
    energy) go through ordered ``np.cumsum`` chains ≡ the ``+=`` chains,
    and each job's private RNG stream consumes exactly the per-tick draws
    (``standard_normal``·σ is bit-identical to ``normal(0, σ)`` from the
    same stream, minus the broadcasting slow path).  Job streams are
    independent, so batching per job never reorders anything observable.

    The stride truncates at the earliest phase transition of *any* job —
    epoch completion (RNG-dependent: detected from the drawn trajectory,
    longer draws rewound and the retained prefix redrawn, value-identical),
    or a setup/teardown timer expiry (deterministic: bounded up front).
    Each job therefore stays in one phase per stride; the next stride picks
    up from the new phase.  Caps are constant across a stride — the
    framework only strides between control rounds — so the rate and demand
    vectors gathered up front are loop invariants.

    Returns ``(ticks, plans)`` with plans in ``jobs`` order; only the job
    RNG streams move until :meth:`RunningJob.commit_stride` applies them.
    """
    total = len(times)
    caps_all = fleet.caps()
    compute_jobs: list[RunningJob] = []
    idle_jobs: list[tuple[RunningJob, np.ndarray, float]] = []
    L = total
    for job in jobs:
        if not job.stride_capable:
            raise RuntimeError(f"job {job.job_id} cannot be stride-planned")
        if job.phase is JobPhase.COMPUTE:
            compute_jobs.append(job)
            continue
        jt = job.job_type
        limit = jt.setup_time if job.phase is JobPhase.SETUP else jt.teardown_time
        # phase_elapsed over the window: ordered cumsum ≡ the += chain; the
        # first tick at or past the limit is the phase transition, and the
        # stride may include it but not run beyond it.
        chain = np.empty(total + 1)
        chain[0] = job.phase_elapsed
        chain[1:] = dt
        pe_chain = np.cumsum(chain)[1:]
        hits = np.flatnonzero(pe_chain >= limit)
        if hits.size:
            L = min(L, int(hits[0]) + 1)
        idle_jobs.append((job, pe_chain, limit))

    completed_flags: np.ndarray | None = None
    if compute_jobs:
        widths = [len(job.nodes) for job in compute_jobs]
        starts: list[int] = []
        acc = 0
        for w in widths:
            starts.append(acc)
            acc += w
        rows = np.concatenate([j.rows for j in compute_jobs])
        caps_cat = caps_all[rows]
        demand_cat, base_cat, sigma, perf_cat, epochs = fleet.rank_model(rows, caps_cat)
        idle_cat = fleet.idle_watts[rows]
        prog0 = fleet.progress[rows]
        counts_cat = np.concatenate(
            [np.asarray(j.profiler.rank_counts) for j in compute_jobs]
        )
        epochs_cat = epochs.astype(np.int64)
        epochs_job = epochs_cat[starts]
        scales = np.empty(2 * acc)
        scales[0::2] = sigma
        scales[1::2] = 0.01
        # One draw per job stream, interleaved [jitter, rapl] per node; the
        # snapshot allows an exact rewind if a completion truncates the
        # stride (the redrawn prefix is value-identical — same stream).
        snapshots = [job.rng.bit_generator.state for job in compute_jobs]
        draws = np.empty((L, 2 * acc))
        for idx, job in enumerate(compute_jobs):
            w2 = 2 * widths[idx]
            draws[:, 2 * starts[idx] : 2 * starts[idx] + w2] = (
                job.rng.standard_normal(L * w2).reshape(L, w2)
            )
        draws *= scales
        jitter = np.exp(draws[:, 0::2])
        rates = perf_cat[None, :] / (base_cat[None, :] * jitter)
        # Rank progress: per-column ordered cumsum ≡ the per-tick += chain.
        prog = np.cumsum(np.vstack((prog0, rates * dt)), axis=0)[1:]
        done = np.minimum(prog.astype(np.int64), epochs_cat)
        # Per-job barrier count after tick k is max(counts₀, done_k).min()
        # over the job's ranks — monotone in k, so a completion inside the
        # window shows at the final tick; screen there before materialising
        # the full reduction.
        fin = (
            np.minimum.reduceat(np.maximum(done[-1], counts_cat), starts)
            >= epochs_job
        )
        M = L
        if fin.any():
            bar = np.minimum.reduceat(
                np.maximum(done, counts_cat[None, :]), starts, axis=1
            )
            bar_done = bar >= epochs_job[None, :]
            M = int(np.argmax(bar_done.any(axis=1))) + 1
            completed_flags = bar_done[M - 1]
            if M < L:
                for idx, job in enumerate(compute_jobs):
                    job.rng.bit_generator.state = snapshots[idx]
                    job.rng.standard_normal(M * 2 * widths[idx])
                draws = draws[:M]
                prog = prog[:M]
                done = done[:M]
        noisy = demand_cat[None, :] * (1.0 + draws[:, 1::2])
        powers_mat = np.minimum(
            caps_cat[None, :], np.maximum(noisy, idle_cat[None, :])
        )
    else:
        M = L

    plans: dict[str, StridePlan] = {}
    if compute_jobs:
        # Profiler crossings for every job in one pass.  done_k is monotone
        # and never below counts₀ (counts₀ is the floored start progress),
        # so the final tick screens for any crossing before the argwhere
        # materialises.  argwhere's row-major order is tick-major, column
        # ascending — the per-tick call order — and splitting the rows by
        # owning job preserves it.
        updates_by_job: list[list[tuple[int, int, int]]] = [[] for _ in compute_jobs]
        if (done[-1] > counts_cat).any():
            prev = np.vstack((counts_cat, done[:-1]))
            rows = np.argwhere(done > prev)
            owners = np.searchsorted(starts, rows[:, 1], side="right") - 1
            for (k, c), jdx in zip(rows.tolist(), owners.tolist()):
                updates_by_job[jdx].append((k, c - starts[jdx], int(done[k, c])))
    for idx, job in enumerate(compute_jobs):
        a = starts[idx]
        b = a + widths[idx]
        # Job tick power: left-to-right accumulation over nodes, matching
        # the scalar `tick_power += power` loop (seeding with the first
        # column is exact: 0.0 + p ≡ p for the strictly positive draws).
        tick_power = powers_mat[:, a].copy()
        for col in range(a + 1, b):
            np.add(tick_power, powers_mat[:, col], out=tick_power)
        completed = completed_flags is not None and bool(completed_flags[idx])
        pe = job.phase_elapsed
        finished_at: float | None = None
        if completed:
            finished_at = float(times[M - 1])
            pe = 0.0
        else:
            for _ in range(M):  # the per-tick += chain, verbatim
                pe += dt
        plans[job.job_id] = StridePlan(
            ticks=M,
            finished=False,
            powers=powers_mat[:, a:b],
            phase=JobPhase.TEARDOWN if completed else JobPhase.COMPUTE,
            phase_elapsed=pe,
            rank_progress=prog[M - 1, a:b].copy(),
            profiler_updates=updates_by_job[idx],
            compute_started_at=None,
            compute_finished_at=finished_at,
            end_at=None,
            compute_tick_power=tick_power,
        )
    for job, pe_chain, limit in idle_jobs:
        n = len(job.nodes)
        caps = caps_all[job.rows]
        idle = fleet.idle_watts[job.rows]
        eps = job.rng.standard_normal((M, n)) * 0.01
        powers = np.minimum(
            caps[None, :], np.maximum(idle[None, :] * (1.0 + eps), idle[None, :])
        )
        pe = float(pe_chain[M - 1])
        phase = job.phase
        started_at: float | None = None
        end_at: float | None = None
        finished = False
        if pe >= limit:  # the timer expired on the stride's final tick
            if phase is JobPhase.SETUP:
                phase = JobPhase.COMPUTE
                started_at = float(times[M - 1])
            else:
                phase = JobPhase.DONE
                end_at = float(times[M - 1])
                finished = True
            pe = 0.0
        plans[job.job_id] = StridePlan(
            ticks=M,
            finished=finished,
            powers=powers,
            phase=phase,
            phase_elapsed=pe,
            rank_progress=job._rank_progress,
            profiler_updates=[],
            compute_started_at=started_at,
            compute_finished_at=None,
            end_at=end_at,
            compute_tick_power=None,
        )
    return M, [plans[job.job_id] for job in jobs]
