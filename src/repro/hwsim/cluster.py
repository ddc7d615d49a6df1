"""The emulated cluster: node pool, job lifecycle, facility power metering.

Mirrors the paper's testbed (§5.5): 16 dual-package nodes by default, RAPL
cap range 140–280 W per node, so the whole cluster spans 2.24–4.48 kW — the
band Fig. 9's demand-response targets move within.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from repro.geopm.msr import POWER_UNIT_WATTS
from repro.geopm.profiler import EpochBatch
from repro.geopm.report import ApplicationTotals
from repro.hwsim.job import (
    CLASS_SHIFT,
    FREE,
    QUIET,
    RANK_BITS,
    SCALAR,
    JobPhase,
    RunningJob,
)
from repro.hwsim.node import Node
from repro.util.clock import SimClock
from repro.util.rng import ensure_rng, spawn_rng
from repro.workloads.nas import IDLE_NODE_POWER, JobType

__all__ = ["EmulatedCluster"]

# Where the quiet, the free and the scalar classes begin among sorted seats.
_CLASS_FLOORS = np.array([QUIET, FREE, SCALAR], dtype=np.int64) << CLASS_SHIFT
_RANK_MASK = (1 << RANK_BITS) - 1
_ORDER_MASK = (1 << CLASS_SHIFT) - 1  # start number and rank


@dataclass(slots=True)
class _Layout:
    """What a window needs that only membership decides.

    Membership is which jobs run, on which nodes, in which phase, and which
    nodes are down; ``stamp`` is the cluster's record of it, and the layout
    is rebuilt at the first window that finds another.  Columns of a window's
    arrays are ``rows``: the ranks of the compute jobs (``epochs.rows``), then
    those of the setup/teardown jobs, then the idle nodes.
    """

    stamp: tuple[bytes, bytes]
    scalar: list[RunningJob]  # jobs only the scalar reference can step
    jobs: list[RunningJob]  # the rest: ``epochs.starts.size`` compute jobs, then the quiet
    epochs: EpochBatch  # the compute jobs' profilers
    rows: np.ndarray
    consts: np.ndarray  # (9, compute ranks) of the cluster's ``_rank``
    idle: np.ndarray  # idle watts per column
    roots: np.ndarray  # each of ``jobs``' first row: its ledger entry
    job_epochs: np.ndarray  # per compute job
    expiry: np.ndarray  # per quiet job: the phase timer it is running
    wider: list[tuple[np.ndarray, np.ndarray]]  # entry p-1: (jobs wider than p, their p-th column)
    compute_streams: tuple[list[np.random.Generator], list[int]]  # with column bounds
    quiet_streams: tuple[list[np.random.Generator], list[int]]  # quiet jobs', then idle nodes'


class EmulatedCluster:
    """A pool of emulated nodes plus the jobs running on them.

    Physics state is struct-of-arrays: node-indexed columns owned here, of
    which each :class:`Node` (and its MSR banks), :class:`RunningJob` and
    :class:`~repro.geopm.profiler.EpochProfiler` holds views.  One rank runs
    per node, so the per-rank model constants, progress and epoch counts are
    node-indexed too, and what is per job sits at the job's first row.  One
    window kernel steps every rank of every job, and every idle node, across
    one tick (:meth:`advance`) or a run of them (:meth:`advance_stride`).
    """

    PACKAGES = 2  # the testbed's dual-package nodes (§5.5)

    def __init__(
        self,
        num_nodes: int = 16,
        *,
        seed: int | np.random.Generator | None = None,
        perf_variation_std: float = 0.0,
        run_noise: bool = True,
    ) -> None:
        if num_nodes < 1:
            raise ValueError(f"cluster needs ≥ 1 node, got {num_nodes}")
        self.clock = SimClock()
        rng = ensure_rng(seed)
        node_rngs = spawn_rng(rng, num_nodes)
        self._job_rng = rng
        self.run_noise = bool(run_noise)
        pk = self.PACKAGES
        self._energy = np.zeros((num_nodes, pk))  # unwrapped joules per package
        self._limit = np.zeros((num_nodes, pk), dtype=np.int64)  # raw PKG_POWER_LIMIT
        self._power = np.zeros(num_nodes)  # realised draw of the latest tick (W)
        self._down = np.zeros(num_nodes, dtype=bool)  # crashed
        # Each node's place among the kernel's columns, a sort key (see
        # ``repro.hwsim.job``): the class is written by the job there as it
        # changes phase; a node with no job is FREE, in node order.
        self._free_seat = (FREE << CLASS_SHIFT) + np.arange(num_nodes)
        self._seat = self._free_seat.copy()
        self._started = 0  # jobs ever started
        self._tenant: list[RunningJob | None] = [None] * num_nodes  # at its first row
        # Rank constants, one row each: truth curve a, b, c; p_min; p_demand;
        # jitter σ; run multiplier; epochs; node perf multiplier; and the
        # node's idle watts.  Read when the layout is built.
        self._rank = np.zeros((10, num_nodes))
        self.idle_watts = self._rank[9]
        self.idle_watts[:] = IDLE_NODE_POWER
        self.progress = np.zeros(num_nodes)  # fractional epochs done per rank
        self._counts = np.zeros(num_nodes, dtype=np.int64)  # whole epochs done per rank
        self._barrier = np.zeros(num_nodes, dtype=np.int64)  # job-global epoch count
        # Per job: phase_elapsed, _compute_energy, _compute_seconds.
        self._ledger = np.zeros((3, num_nodes))
        self._layout: _Layout | None = None
        self._caps: tuple[bytes, np.ndarray] | None = None  # (raw limits, caps under them)
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
        return np.flatnonzero((self._seat >> CLASS_SHIFT == FREE) & ~self._down)

    def idle_nodes(self) -> list[Node]:
        """Schedulable nodes in ascending ``node_id`` (the allocation order)."""
        return [self.nodes[i] for i in self._idle_rows().tolist()]

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
            cells=(self.progress, self._counts, self._barrier, self._ledger, self._seat),
            serial=self._started + 1,
            run_noise=self.run_noise,
        )
        for node in nodes:
            node.job_id = job_id
        # Per-node constants are read now, not at construction: a caller may
        # have tuned ``perf_multiplier`` in between.
        truth = job_type.truth
        self._rank[:8, job.rows] = [
            [truth.a], [truth.b], [truth.c], [job_type.p_min], [job_type.p_demand],
            [job_type.noise], [job._run_multiplier], [job_type.epochs],
        ]
        self._rank[8, job.rows] = [node.perf_multiplier for node in nodes]
        self._started += 1
        self._tenant[job.root] = job
        self.running[job_id] = job
        return job

    def _release(self, job: RunningJob) -> None:
        """Take ``job`` off the cluster and free its nodes."""
        del self.running[job.job_id]
        for node in job.nodes:
            node.job_id = None
            node.pio.detach_profiler()
        self._seat[job.rows] = self._free_seat[job.rows]
        self._tenant[job.root] = None
        job.detach()  # its rows may be re-let while its ledger is still read

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
        summed in package order — the scalar property's operations.  Kept
        until a limit register is written: between control rounds every
        window runs under the same caps.
        """
        raw = self._limit.tobytes()
        if self._caps is None or self._caps[0] != raw:
            watts = np.clip(self._limit * POWER_UNIT_WATTS, self._limit_lo, self._limit_hi)
            caps = watts[:, 0].copy()
            for p in range(1, watts.shape[1]):
                caps += watts[:, p]
            self._caps = (raw, caps)
        return self._caps[1]

    @staticmethod
    def rank_model(consts: np.ndarray, cap: np.ndarray) -> tuple[np.ndarray, ...]:
        """Tick invariants of statically-profiled compute ranks under ``cap``.

        ``consts`` is those ranks' columns of ``_rank``.  Returns ``(demand,
        rate base, jitter σ, perf, epochs)``: ``cap`` clamped into ``[p_min,
        p_demand]`` is both the draw demand and the truth curve's argument;
        ``rate base`` is τ(demand)·run multiplier.
        """
        a, b, c, p_min, p_demand, sigma, run_mult, epochs, perf = consts
        demand = np.minimum(np.maximum(cap, p_min), p_demand)
        tau = a * demand * demand + b * demand + c
        return demand, tau * run_mult, sigma, perf, epochs

    def advance(self, dt: float) -> float:
        """Advance physics by one tick of ``dt`` (clock already moved by the caller).

        Jobs advance, idle nodes draw idle power, and completed jobs release
        their nodes.  Returns the realised cluster CPU power for the tick: a
        window of one at the clock's instant.
        """
        return float(self._window(np.array([self.clock.now]), dt)[1][0])

    def stride_ready(self) -> bool:
        """True when a window may span more than one tick.

        Jobs with epoch-periodic power waves, phased curves, or failed nodes
        take the scalar reference, one tick at a time (see
        :attr:`RunningJob.array_capable`).
        """
        return not self._membership().scalar

    def _membership(self) -> _Layout:
        """The layout of the present membership, rebuilt if that has changed.

        Jobs write ``_seat`` as they start and change phase and ``Node.fail``
        / ``restore`` the crashed flags, neither through the cluster, so the
        columns themselves are compared.
        """
        stamp = (self._seat.tobytes(), self._down.tobytes())
        if self._layout is None or self._layout.stamp != stamp:
            self._layout = self._build_layout(stamp)
        return self._layout

    def _build_layout(self, stamp: tuple[bytes, bytes]) -> _Layout:
        # A handful of array passes whatever the node count (what a numpy
        # call costs is the cost here), then one lookup per job for what only
        # the job object holds: its stream, its timestamp list.
        seat = self._seat
        if b"\x01" in stamp[1]:
            # A crashed node leaves the columns, and the job over it goes to
            # the scalar reference whole: that skips a crashed rank's draws,
            # which the arrays cannot reproduce.
            busy = seat >> CLASS_SHIFT != FREE
            job = (seat & _ORDER_MASK) >> RANK_BITS
            struck = busy & np.isin(job, job[self._down & busy])
            seat = np.where(struck | self._down, seat | (SCALAR << CLASS_SHIFT), seat)
        order = np.argsort(seat)
        seat = seat[order]
        nc, nq, nf = np.searchsorted(seat, _CLASS_FLOORS).tolist()
        rows = order[:nf]  # compute ranks, quiet ranks, idle nodes
        rank = seat[:nq] & _RANK_MASK
        firsts = np.flatnonzero(rank == 0)  # where each job's columns begin
        bounds = firsts.tolist()
        ncj = bisect_left(bounds, nc)
        starts = firsts[:ncj]
        roots = rows[firsts]
        tenant = self._tenant
        jobs = [tenant[r] for r in roots.tolist()]
        compute, quiet = jobs[:ncj], jobs[ncj:]
        table = self._rank[:, rows]
        wider = []
        if nc > ncj:  # some job is wider than one node
            rank = rank[:nc]
            for p in range(1, int(rank.max()) + 1):
                column = np.flatnonzero(rank == p)
                wider.append((np.searchsorted(starts, column - p), column))
        return _Layout(
            stamp=stamp,
            scalar=[tenant[r] for r in order[nf:].tolist() if tenant[r] is not None],
            jobs=jobs,
            epochs=EpochBatch(
                self._counts, self._barrier, rows[:nc], starts, [job.profiler for job in compute]
            ),
            rows=rows,
            consts=table[:9, :nc],
            idle=table[9],
            roots=roots,
            job_epochs=table[7, starts],
            expiry=np.array(
                [
                    job.job_type.setup_time
                    if job.phase is JobPhase.SETUP
                    else job.job_type.teardown_time
                    for job in quiet
                ]
            ),
            wider=wider,
            # [jitter, RAPL] per compute rank per tick; one RAPL draw per
            # quiet rank from the job's stream, one per idle node from its own.
            compute_streams=(
                [job.rng for job in compute],
                [2 * lo for lo in bounds[:ncj]] + [2 * nc],
            ),
            quiet_streams=(
                [job.rng for job in quiet] + [self._node_rngs[i] for i in rows[nq:].tolist()],
                [lo - nc for lo in bounds[ncj:]] + list(range(nq - nc, nf - nc + 1)),
            ),
        )

    def advance_stride(self, times: np.ndarray, dt: float) -> tuple[int, np.ndarray]:
        """Advance physics across every instant in ``times`` in one call.

        Returns ``(M, totals)``: the number of ticks actually executed and
        the per-tick cluster power, bit-identical to ``M`` successive
        :meth:`advance` calls at those instants.  The window never runs past
        a tick on which some job changes phase — it truncates at the earliest
        one so completions release nodes (and the scheduler sees them) on the
        very next tick, as under per-tick stepping.  It may also stop short
        of ``len(times)`` without one: it is sized to the nearest foreseeable
        completion, which jitter can delay, and a job that needs the scalar
        reference holds it to one tick.

        Callers must not change any per-tick input (caps, node allocation,
        fault state) between the instants covered; the framework guarantees
        this by extending a window only across control-event-free ticks.
        """
        times = np.asarray(times, dtype=float)
        if times.size == 0 or (times[1:] <= times[:-1]).any():
            raise ValueError(f"times must be non-empty and increasing, got {times}")
        return self._window(times, dt)

    def _window(self, times: np.ndarray, dt: float) -> tuple[int, np.ndarray]:
        """The physics kernel: one array pass over ``(times[0:T], dt)``.

        Columns are every rank of every job and every idle node (see
        :class:`_Layout`); the leading axis is time.  Each step is the
        elementwise twin of :meth:`RunningJob.advance` / :meth:`Node.consume`
        (same IEEE ops, same order), every RNG stream is drawn exactly as the
        scalar path draws it, tick after tick (``standard_normal``·σ ≡
        ``normal(0, σ)``), and every sequential accumulation is an ordered
        fold along its axis (:func:`_fold`), so ``T`` ticks here are
        bit-identical to ``T`` scalar reference ticks — which jobs the arrays
        cannot describe (power-wave and phased types, a crashed node) still
        take.  Per-job state is columns too, so Python runs per stream (its
        draw) and per job that changes phase, and for nothing else.

        The window ends at the first tick on which any job changes phase.
        Setup/teardown timers are deterministic and bound it up front; an
        epoch completion is read off the drawn trajectory, and when it comes
        before the last tick the compute streams are rewound to their
        snapshots and only the retained prefix is redrawn (same stream, so
        value-identical).  Each job therefore stays in one phase per window,
        and nothing — no stream, no progress — moves before the inputs have
        been validated.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        lay = self._membership()
        epochs_of, rows = lay.epochs, lay.rows
        ranks, starts = epochs_of.rows, epochs_of.starts
        nc, ncj = ranks.size, starts.size  # compute ranks are rows[:nc]
        span = 1 if lay.scalar else times.size
        book = self._ledger[:, lay.roots]  # the jobs' ledger entries, compute jobs first
        if span > 1 and lay.expiry.size:
            # A timer's expiry is phase_elapsed's own chain of adds, run ahead.
            ahead = _fold(book[0, ncj:], np.full((span - 1, 1), dt))[1:]
            expired = (ahead >= lay.expiry).any(axis=1)
            if expired.any():
                span = int(expired.argmax()) + 1
        cap = self.caps()[rows]
        idle = lay.idle
        demand = idle.copy()  # quiet ranks and idle nodes ask for idle power
        demand[:nc], base, sigma, perf, epochs = self.rank_model(lay.consts, cap[:nc])
        # RAPL noise scales the demand by 1+ε > 0, so a draw is negative
        # exactly when both the demand and the idle floor under it are.
        if np.maximum(demand, idle).min(initial=0.0) < 0:
            raise ValueError("cannot consume negative energy: a node would draw < 0 W")
        for job in lay.scalar:
            job.advance(dt, float(times[0]))
        if span > 1 and ncj:
            # Draws past a phase change are thrown away and every compute
            # stream rewound, so ask for no more than the nearest foreseeable
            # completion: the slowest rank of the job closest to done, at its
            # jitter-free rate.  The rewind below covers what jitter brings
            # forward; what it delays just ends this window a tick early.
            left = (epochs - self.progress[ranks]) * base / (perf * dt)
            span = min(span, max(1, math.ceil(np.maximum.reduceat(left, starts).min())))
        streams, bounds = lay.compute_streams
        snapshots = [rng.bit_generator.state for rng in streams] if span > 1 else []
        z = _draw(streams, bounds, span)
        jitter = np.exp(z[:, 0::2] * sigma)
        grown = _fold(self.progress[ranks], perf / (base * jitter) * dt)
        # A rank's profiler count is its floored progress, capped at epochs;
        # a job's barrier is the least of its ranks' counts.
        done, floor = epochs_of.preview(np.minimum(np.floor(grown[1:]), epochs))
        if snapshots:
            # A job completes on the first tick its barrier reaches epochs.
            finished = floor[1:] == lay.job_epochs
            first = int(finished.any(axis=1).argmax()) + 1
            if first < span and finished[first - 1].any():
                span = first
                for rng, state, lo, hi in zip(streams, snapshots, bounds, bounds[1:]):
                    rng.bit_generator.state = state
                    rng.standard_normal(span * (hi - lo))
                z, grown = z[:span], grown[: span + 1]
                done, floor = done[: span + 1], floor[: span + 1]
        epochs_of.record(done, floor, times)  # a falling count raises here: no cell written yet
        self.progress[ranks] = grown[-1]
        # Node.consume for all columns: RAPL noise, cap ceiling, idle floor,
        # energy split evenly over the packages.
        eps = np.concatenate((z[:, 1::2], _draw(*lay.quiet_streams, span)), axis=1) * 0.01
        power = np.minimum(cap, np.maximum(demand * (1.0 + eps), idle))
        joules = power * dt / self.PACKAGES
        self._energy[rows] = _after(self._energy[rows], joules[:, :, None])
        # Cluster power per tick: ordered fold in node order; failed nodes
        # hold 0 W, scalar-path nodes what their job just deposited.
        series = np.empty((span, len(self.nodes)))
        series[:] = self._power
        series[:, rows] = power
        self._power[rows] = power[-1]
        totals = series.cumsum(axis=1)[:, -1]
        # Job power per tick: left to right over the job's nodes, one add per
        # position (``np.add.reduceat`` and ``sum`` pair terms up otherwise).
        drawn = power[:, starts]
        for wide, column in lay.wider:
            drawn[:, wide] += power[:, column]
        # RunningJob.settle's += chains; a quiet job's compute rows get +0.0.
        steps = np.zeros((span, *book.shape))
        steps[:, 0] = dt
        steps[:, 1, :ncj] = drawn * dt
        steps[:, 2, :ncj] = dt
        book = _after(book, steps)
        self._ledger[:, lay.roots] = book
        turned = np.concatenate((floor[-1] >= lay.job_epochs, book[0, ncj:] >= lay.expiry))
        turning = [lay.jobs[j] for j in turned.nonzero()[0].tolist()]
        ticks = times[:span].tolist()
        for job in turning:
            job.turn_phase(ticks[-1])
        # Completions are booked in start order, which ``turning`` keeps
        # unless scalar-path jobs finish beside it.
        self._retire_done(self.running.values() if lay.scalar else turning)
        self._power_history.extend(zip(ticks, totals.tolist()))
        return span, totals

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


def _fold(start: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """Running sums of ``steps`` (broadcast against ``start``) down the
    leading (time) axis, ``start`` as row 0.

    ``np.cumsum`` accumulates strictly left to right, so row ``k`` is
    bit-identical to ``start`` after ``k`` successive ``+=`` of the steps.
    """
    chain = np.empty((len(steps) + 1, *start.shape))
    chain[0] = start
    chain[1:] = steps
    return chain.cumsum(axis=0)


def _after(start: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``start`` after adding each of ``steps`` in turn: :func:`_fold`'s last row."""
    return start + steps[0] if len(steps) == 1 else _fold(start, steps)[-1]


def _draw(streams: list[np.random.Generator], bounds: list[int], ticks: int) -> np.ndarray:
    """``(ticks, bounds[-1])`` standard normals, stream ``i`` filling columns
    ``bounds[i]:bounds[i + 1]`` tick-major — the order one tick at a time
    takes them."""
    z = np.empty((ticks, bounds[-1]))
    if ticks == 1:  # a column block of one row is contiguous: draw in place
        row = z[0]
        for rng, lo, hi in zip(streams, bounds, bounds[1:]):
            rng.standard_normal(out=row[lo:hi])
    else:
        for rng, lo, hi in zip(streams, bounds, bounds[1:]):
            z[:, lo:hi] = rng.standard_normal((ticks, hi - lo))
    return z
