"""The emulated cluster: node pool, job lifecycle, facility power metering.

Mirrors the paper's testbed (§5.5): 16 dual-package nodes by default, RAPL
cap range 140–280 W per node, so the whole cluster spans 2.24–4.48 kW — the
band Fig. 9's demand-response targets move within.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from repro.geopm.msr import POWER_UNIT_WATTS
from repro.geopm.report import ApplicationTotals
from repro.hwsim.job import JobPhase, RunningJob, plan_stride_batch
from repro.hwsim.node import Node
from repro.util.clock import SimClock
from repro.util.rng import ensure_rng, spawn_rng
from repro.workloads.nas import JobType

__all__ = ["EmulatedCluster"]


class EmulatedCluster:
    """A pool of emulated nodes plus the jobs running on them.

    Physics state is struct-of-arrays: node-indexed columns owned here, of
    which each :class:`Node` (and its MSR banks) holds one-row views.  One
    rank runs per node, so the per-rank model constants and progress are
    node-indexed too, written at :meth:`start_job`.  :meth:`advance` steps
    every rank of every job, and every idle node, in one array pass.
    """

    PACKAGES = 2  # the testbed's dual-package nodes (§5.5)

    def __init__(
        self,
        num_nodes: int = 16,
        *,
        clock: SimClock | None = None,
        seed: int | np.random.Generator | None = None,
        idle_power: float = 60.0,
        perf_variation_std: float = 0.0,
        agent_fanout: int = 8,
        run_noise: bool = True,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"cluster needs ≥ 1 node, got {num_nodes}")
        self.clock = clock if clock is not None else SimClock()
        rng = ensure_rng(seed)
        node_rngs = spawn_rng(rng, num_nodes)
        self._job_rng = rng
        self.agent_fanout = int(agent_fanout)
        self.run_noise = bool(run_noise)
        pk = self.PACKAGES
        self._energy = np.zeros((num_nodes, pk))  # unwrapped joules per package
        self._limit = np.zeros((num_nodes, pk), dtype=np.int64)  # raw PKG_POWER_LIMIT
        self._power = np.zeros(num_nodes)  # realised draw of the latest tick (W)
        self._down = np.zeros(num_nodes, dtype=bool)  # crashed
        self._vacant = np.ones(num_nodes, dtype=bool)  # no job allocated
        self.idle_watts = np.full(num_nodes, float(idle_power))
        # Rank constants, one row each: truth curve a, b, c; p_min; p_demand;
        # jitter σ; run multiplier; epochs; node perf multiplier.
        self._rank = np.zeros((9, num_nodes))
        self.progress = np.zeros(num_nodes)  # fractional epochs done per rank
        self.nodes = []
        for i in range(num_nodes):
            mult = 1.0
            if perf_variation_std > 0:
                # §6.4: per-node coefficients from N(1, σ), fixed per node
                # for the whole simulation.  Floor keeps rates physical.
                mult = max(0.05, 1.0 + float(node_rngs[i].normal(0.0, perf_variation_std)))
            self.nodes.append(
                Node(
                    i,
                    clock_fn=lambda: self.clock.now,
                    packages=pk,
                    idle_power=idle_power,
                    perf_multiplier=mult,
                    cells=(
                        self._energy[i],
                        self._limit[i],
                        self._power[i : i + 1],
                        self._down[i : i + 1],
                    ),
                )
            )
        banks = [node.banks for node in self.nodes]
        self._limit_lo = np.array([[b.min_power_watts for b in row] for row in banks])
        self._limit_hi = np.array([[b.tdp_watts for b in row] for row in banks])
        self._node_rngs = node_rngs
        self.running: dict[str, RunningJob] = {}
        self.completed: list[ApplicationTotals] = []
        self.killed: list[tuple[float, str]] = []  # (time, job_id) of kills
        self._power_history: list[tuple[float, float]] = []

    # ------------------------------------------------------------ node pool

    def _idle_rows(self) -> np.ndarray:
        return np.flatnonzero(self._vacant & ~self._down)

    def idle_nodes(self) -> list[Node]:
        """Schedulable nodes in ascending ``node_id`` (the allocation order)."""
        return [self.nodes[i] for i in self._idle_rows().tolist()]

    def failed_nodes(self) -> list[Node]:
        return [self.nodes[i] for i in np.flatnonzero(self._down).tolist()]

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def min_cluster_power(self) -> float:
        """Lowest enforceable CPU cap total across all nodes (W)."""
        return sum(n.min_power_cap for n in self.nodes)

    @property
    def max_cluster_power(self) -> float:
        return sum(n.max_power_cap for n in self.nodes)

    # --------------------------------------------------------- job lifecycle

    def start_job(
        self,
        job_id: str,
        job_type: JobType,
        *,
        submit_time: float | None = None,
        nodes: list[Node] | None = None,
    ) -> RunningJob:
        """Place a job on idle nodes (or explicit ``nodes``) and start it."""
        if job_id in self.running:
            raise ValueError(f"job id {job_id!r} already running")
        if nodes is None:
            pool = self.idle_nodes()
            if len(pool) < job_type.nodes:
                raise RuntimeError(
                    f"not enough idle nodes for {job_id}: "
                    f"need {job_type.nodes}, have {len(pool)}"
                )
            nodes = pool[: job_type.nodes]
        busy = [n.node_id for n in nodes if not n.is_idle]
        if busy:
            raise RuntimeError(f"nodes already allocated: {busy}")
        now = self.clock.now
        job_rng = spawn_rng(self._job_rng, 1)[0]
        job = RunningJob(
            job_id,
            job_type,
            nodes,
            submit_time=now if submit_time is None else submit_time,
            start_time=now,
            rng=job_rng,
            progress=self.progress,
            agent_fanout=self.agent_fanout,
            run_noise=self.run_noise,
        )
        for node in nodes:
            node.job_id = job_id
        # Per-node constants are read now, not at construction: a caller may
        # have tuned ``perf_multiplier`` / ``idle_power`` in between.
        truth = job_type.truth
        self._rank[:8, job.rows] = [
            [truth.a], [truth.b], [truth.c], [job_type.p_min], [job_type.p_demand],
            [job_type.noise], [job._run_multiplier], [job_type.epochs],
        ]
        self._rank[8, job.rows] = [node.perf_multiplier for node in nodes]
        self.idle_watts[job.rows] = [node.idle_power for node in nodes]
        self.progress[job.rows] = 0.0
        self._vacant[job.rows] = False
        self.running[job_id] = job
        return job

    def _release(self, job: RunningJob) -> None:
        """Take ``job`` off the cluster and free its nodes."""
        del self.running[job.job_id]
        for node in job.nodes:
            node.job_id = None
            node.pio.detach_profiler()
        self._vacant[job.rows] = True

    def _retire_done(self, jobs) -> None:
        """Release every finished job among ``jobs`` and book its totals."""
        for job in [j for j in jobs if j.is_done]:
            self._release(job)
            self.completed.append(job.totals())

    def kill_job(self, job_id: str) -> RunningJob:
        """Terminate a running job mid-flight, releasing its nodes.

        Unlike normal completion the job produces no Application Totals —
        its partial progress is lost and the caller decides whether to
        requeue it.
        """
        if job_id not in self.running:
            raise KeyError(f"job {job_id!r} is not running")
        job = self.running[job_id]
        self._release(job)
        job.kill(self.clock.now)
        self.killed.append((self.clock.now, job_id))
        return job

    def fail_node(self, node_id: int) -> str | None:
        """Crash one node; returns the job id it killed, if any.

        The victim job (if the node was allocated) is killed on every node
        it occupied — an MPI job does not survive losing a rank.  The node
        stays out of the pool until :meth:`restore_node`.
        """
        node = self.nodes[node_id]
        if node.failed:
            return None
        victim = node.job_id
        if victim is not None:
            self.kill_job(victim)
        node.fail()
        return victim

    def restore_node(self, node_id: int) -> None:
        """Bring a crashed node back into the schedulable pool."""
        self.nodes[node_id].restore()

    def caps(self) -> np.ndarray:
        """Every node's CPU cap (W): ``Node.power_cap`` for the whole fleet.

        Each package's programmed limit clamped into its actuatable range,
        summed in package order — the scalar property's operations.
        """
        watts = np.clip(self._limit * POWER_UNIT_WATTS, self._limit_lo, self._limit_hi)
        caps = watts[:, 0].copy()
        for p in range(1, watts.shape[1]):
            caps += watts[:, p]
        return caps

    def rank_model(self, rows: np.ndarray, cap: np.ndarray) -> tuple[np.ndarray, ...]:
        """Tick invariants of statically-profiled compute ranks on ``rows``.

        Returns ``(demand, rate base, jitter σ, perf, epochs)``: ``cap``
        clamped into ``[p_min, p_demand]`` is both the draw demand and the
        truth curve's argument; ``rate base`` is τ(demand)·run multiplier.
        """
        a, b, c, p_min, p_demand, sigma, run_mult, epochs, perf = self._rank[:, rows]
        demand = np.minimum(np.maximum(cap, p_min), p_demand)
        tau = a * demand * demand + b * demand + c
        return demand, tau * run_mult, sigma, perf, epochs

    def advance(self, dt: float) -> float:
        """Advance physics by ``dt`` (clock already moved by the caller).

        Jobs advance, idle nodes draw idle power, and completed jobs release
        their nodes.  Returns the realised cluster CPU power for the tick.

        One array pass covers every rank of every job and every idle node.
        Each step is the elementwise twin of :meth:`RunningJob.advance` /
        :meth:`Node.consume` (same IEEE ops, same order), every RNG stream
        is drawn exactly as the scalar path draws it (``standard_normal``·σ
        ≡ ``normal(0, σ)``), and reductions are ordered, so the tick is
        bit-identical to the scalar reference — which jobs the arrays cannot
        describe (power-wave and phased types, a crashed node) still take.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        now = self.clock.now
        healthy = not self._down.any()
        compute: list[RunningJob] = []
        quiet: list[RunningJob] = []  # setup/teardown: idle draw, job's stream
        for job in self.running.values():
            if not (job.profile_static and (healthy or job.array_capable)):
                job.advance(dt, now)
            elif job.phase is JobPhase.COMPUTE:
                compute.append(job)
            else:
                quiet.append(job)
        free = self._idle_rows()
        rows = np.concatenate([j.rows for j in compute] + [j.rows for j in quiet] + [free])
        # Packed draws, stream by stream: [jitter, RAPL] per compute rank,
        # one RAPL draw per quiet rank, one per idle node from its own stream.
        bounds = list(
            accumulate(
                [2 * len(j.nodes) for j in compute] + [len(j.nodes) for j in quiet],
                initial=0,
            )
        )
        z = np.empty(bounds[-1] + free.size)
        for job, lo, hi in zip(compute + quiet, bounds, bounds[1:]):
            job.rng.standard_normal(out=z[lo:hi])
        for k, row in enumerate(free.tolist(), bounds[-1]):
            z[k] = self._node_rngs[row].standard_normal()
        starts = [lo // 2 for lo in bounds[: len(compute)]]
        nc = bounds[len(compute)] // 2  # compute ranks are rows[:nc]
        ranks = rows[:nc]
        cap = self.caps()[rows]
        idle = self.idle_watts[rows]
        demand = idle.copy()  # quiet ranks and idle nodes ask for idle power
        demand[:nc], base, sigma, perf, epochs = self.rank_model(ranks, cap[:nc])
        jitter = np.exp(z[0 : 2 * nc : 2] * sigma)
        before = self.progress[ranks]
        after = before + perf / (base * jitter) * dt
        self.progress[ranks] = after
        # A rank's profiler count is its floored progress, capped at epochs.
        done = np.minimum(np.floor(after), epochs)
        crossed = np.flatnonzero(done > np.minimum(np.floor(before), epochs))
        owners = np.searchsorted(starts, crossed, side="right") - 1
        for r, o, d in zip(crossed.tolist(), owners.tolist(), done[crossed].tolist()):
            compute[o].profiler.set_rank_progress(r - starts[o], int(d), timestamp=now)
        # Node.consume for all rows: RAPL noise, cap ceiling, idle floor.
        eps = np.concatenate((z[1 : 2 * nc : 2], z[2 * nc :])) * 0.01
        power = np.minimum(cap, np.maximum(demand * (1.0 + eps), idle))
        joules = power * dt / self.PACKAGES
        if (joules < 0).any():
            raise ValueError(f"cannot consume negative energy: {joules.min()}")
        self._power[rows] = power
        self._energy[rows] += joules[:, None]
        watts = power.tolist()
        for job, lo in zip(compute, starts):
            tick_power = 0.0  # left-to-right over the job's nodes
            for w in watts[lo : lo + len(job.nodes)]:
                tick_power += w
            job.settle(dt, now, tick_power)
        for job in quiet:
            job.settle(dt, now, None)
        self._retire_done(self.running.values())
        # Ordered (cumsum) fold in node order; failed nodes hold 0 W.
        total = float(np.cumsum(self._power)[-1])
        self._power_history.append((now, total))
        return total

    def stride_ready(self) -> bool:
        """True when every running job can be advanced analytically.

        Jobs with epoch-periodic power waves, phased curves, or failed nodes
        force the per-tick path (see :attr:`RunningJob.stride_capable`).
        """
        for job in self.running.values():
            if not job.stride_capable:
                return False
        return True

    def advance_stride(self, times: np.ndarray, dt: float) -> tuple[int, np.ndarray]:
        """Advance physics across every instant in ``times`` in one call.

        Returns ``(M, totals)``: the number of ticks actually executed and
        the per-tick cluster power, bit-identical to ``M`` successive
        :meth:`advance` calls at those instants.  ``M < len(times)`` exactly
        when some job crosses a phase transition — the stride truncates at
        the earliest one so completions release nodes (and the scheduler
        sees them) on the very next tick, as under per-tick stepping.

        Callers must not change any per-tick input (caps, node allocation,
        fault state) between the instants covered; the framework guarantees
        this by striding only across control-event-free ticks.
        """
        total = len(times)
        if total == 0:
            return 0, np.empty(0)
        jobs = list(self.running.values())
        ticks, plans = plan_stride_batch(self, jobs, times, dt)
        for job, plan in zip(jobs, plans):
            job.commit_stride(plan, times, dt)
        # Per-node power series for the whole fleet: job plans fill their
        # nodes' columns, idle nodes draw their own streams, failed nodes
        # hold their last (zero) draw.
        series = np.empty((ticks, len(self.nodes)))
        series[:] = self._power
        for job, plan in zip(jobs, plans):
            series[:, job.rows] = plan.powers
        caps = self.caps()
        for i in self._idle_rows().tolist():
            # standard_normal·σ ≡ normal(0, σ) bit for bit, minus the
            # broadcasting slow path of the scale argument.
            eps = self._node_rngs[i].standard_normal(ticks) * 0.01
            idle = self.idle_watts[i]
            powers = np.minimum(caps[i], np.maximum(idle * (1.0 + eps), idle))
            self.nodes[i].deposit_series(powers, dt)
            series[:, i] = powers
        self._retire_done(jobs)
        # Cluster power per tick: left-to-right accumulation in node order,
        # matching the scalar `sum(n.last_power for n in self.nodes)`
        # (seeding with node 0's column is exact: 0 + p ≡ p for the
        # non-negative draws).
        totals = series[:, self.nodes[0].node_id].copy()
        for node in self.nodes[1:]:
            np.add(totals, series[:, node.node_id], out=totals)
        for k in range(ticks):
            self._power_history.append((float(times[k]), float(totals[k])))
        return ticks, totals

    # ------------------------------------------------------------- metering

    @property
    def measured_power(self) -> float:
        """Facility-metered cluster CPU power of the latest tick (W)."""
        if not self._power_history:
            return float(np.cumsum(self._power)[-1])
        return self._power_history[-1][1]

    def power_history(self) -> np.ndarray:
        """(time, watts) samples for every tick so far, shape (n, 2)."""
        if not self._power_history:
            return np.empty((0, 2))
        return np.asarray(self._power_history)

    def totals_by_type(self) -> dict[str, list[ApplicationTotals]]:
        by_type: dict[str, list[ApplicationTotals]] = {}
        for totals in self.completed:
            by_type.setdefault(totals.job_type, []).append(totals)
        return by_type
