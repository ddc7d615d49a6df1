"""The emulated cluster: node pool, job lifecycle, facility power metering.

Mirrors the paper's testbed (§5.5): 16 dual-package nodes by default, RAPL
cap range 140–280 W per node, so the whole cluster spans 2.24–4.48 kW — the
band Fig. 9's demand-response targets move within.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from repro.geopm.agent import JobAgentGroup
from repro.geopm.msr import POWER_UNIT_WATTS
from repro.geopm.profiler import EpochBatch, EpochLog
from repro.geopm.report import ApplicationTotals
from repro.hwsim.job import CLASS_SHIFT, FREE, RANK_BITS, SETUP, TEARDOWN, RunningJob
from repro.hwsim.node import Node
from repro.util.clock import SimClock
from repro.util.rng import NormalTape, TapeStream, ensure_rng, spawn_one, spawn_rng
from repro.workloads.nas import (
    IDLE_NODE_POWER, NODE_PACKAGES, PACKAGE_MIN_POWER, PACKAGE_TDP, JobType)
from repro.workloads.phased import PhasedJobType

__all__ = ["EmulatedCluster"]

# Where the setup, teardown and free classes begin among sorted seats.
_CLASS_FLOORS = np.array([SETUP, TEARDOWN, FREE], dtype=np.int64) << CLASS_SHIFT
_RANK_MASK = (1 << RANK_BITS) - 1
_ORDER_MASK = (1 << CLASS_SHIFT) - 1  # a seat less its class: start number, rank
_FREE_FLOOR = FREE << CLASS_SHIFT  # a seat from here on is a node with no job


@cache
def _job_ints(width: int) -> np.ndarray:
    """A job's start block of ``_ints`` less what is its own (the start
    number and class above each seat's rank, its stream's row): what only
    its width decides (read, never written)."""
    rank = np.arange(width)
    zero = np.zeros(width, dtype=np.int64)
    return np.array([rank, zero, zero + width, zero + 2 * width, rank, 2 * rank + 1, zero, zero])


@dataclass(slots=True)
class _Layout:
    """What a window needs that only membership decides.

    Membership is which jobs run, on which nodes, in which phase, and which
    nodes are down; ``stamp`` is the cluster's record of it, and the layout
    is rebuilt at the first window that finds another.  Columns of a window's
    arrays are ``rows``: the ranks of the compute jobs, of the setup jobs
    (together the *active* ranks, ``active.rows``: the jobs that may compute
    in a window), of the teardown jobs, then the idle nodes.  A job's
    columns, or an idle node's one, read one stream, a row of the cluster's
    tape: on a compute tick ``[jitter, RAPL]`` per rank, on a quiet tick one
    RAPL draw per rank (``takes`` and ``reads``).
    """

    stamp: tuple[bytes, bytes]
    jobs: list[RunningJob]  # compute, setup, then teardown jobs
    split: tuple[int, int]  # compute jobs, and with the setup jobs
    bounds: list[int]  # each of ``jobs``' first column, then the end of the last
    computing: EpochBatch  # the compute jobs' profilers
    active: EpochBatch  # the compute and the setup jobs' profilers
    rows: np.ndarray
    consts: np.ndarray  # (9, active ranks): rows 2–10 of the cluster's ``_floats``
    idle: np.ndarray  # idle watts per column
    roots: np.ndarray  # each of ``jobs``' first row: its ledger entry
    computes: np.ndarray  # (1, columns): a compute rank
    job_epochs: np.ndarray  # per active job
    teardown: np.ndarray  # per compute job: the teardown timer its turn starts
    expiry: np.ndarray  # per quiet job (setup, then teardown): the phase timer it is running
    wider: list[tuple[np.ndarray, np.ndarray]]  # entry p-1: (jobs wider than p, their p-th column)
    tape_of: np.ndarray  # per column: its stream's row of the tape
    tape_rows: np.ndarray  # per stream: its row of the tape
    stream_cols: np.ndarray  # per stream: its first column
    takes: np.ndarray  # (2, columns): the stream's draws on a quiet, a compute tick
    reads: np.ndarray  # (2, columns): the column's RAPL draw among those
    varying: list[int]  # of ``jobs``, the compute jobs whose model moves with progress
    ticks: dict[float, tuple] = field(default_factory=dict)  # dt -> :meth:`one_tick`'s arrays

    def one_tick(self, dt: float) -> tuple[np.ndarray, ...]:
        """What a one-tick window of ``dt`` derives from the layout alone,
        built once per ``dt`` and read-only: ``live``, ``tick``, the tape
        reads ``taken`` and ``at``, and the draws each stream must hold."""
        masks = self.ticks.get(dt)
        if masks is None:
            live = self.computes
            tick = np.where(live, dt, 0.0)
            taken, at = _tape_reads(self.takes, self.reads, live)
            masks = self.ticks[dt] = (live, tick, taken, at, taken[-1, self.stream_cols])
            for array in masks:
                array.setflags(write=False)
        return masks


class EmulatedCluster:
    """A pool of emulated nodes plus the jobs running on them.

    Physics state is struct-of-arrays: node-indexed columns owned here, of
    which each :class:`Node` (and its MSR banks), :class:`RunningJob` and
    :class:`~repro.geopm.profiler.EpochProfiler` holds views.  One rank runs
    per node, so the per-rank model constants, progress and epoch counts are
    node-indexed too, and what is per job sits at the job's first row.  One
    window kernel steps every rank of every job, and every idle node, across
    one tick (:meth:`advance`) or a run of them (:meth:`advance_stride`).
    The agent tier's state is columns too, in :attr:`agents`, whose pass
    steps every agent of every running job each agent period; each node's
    ``PlatformIO`` and each job's ``Endpoint`` are views of its cells.
    """

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
        # Every noise stream's draws, pre-drawn: a row per node, then a row
        # per running job at its first node's.
        self._tape = NormalTape(2 * num_nodes)
        self._job_rng = rng
        self.run_noise = bool(run_noise)
        pk = NODE_PACKAGES
        self._energy = np.zeros((num_nodes, pk))  # unwrapped joules per package
        self._limit = np.zeros((num_nodes, pk), dtype=np.int64)  # raw PKG_POWER_LIMIT
        self._power = np.zeros(num_nodes)  # realised draw of the latest tick (W)
        self._down = np.zeros(num_nodes, dtype=bool)  # crashed
        # The node-indexed columns a job's start writes, in two tables, so a
        # start is one block written into each at the job's rows.  Integer
        # rows: 0, the node's place among the kernel's columns, a sort key
        # (see ``repro.hwsim.job``) whose class the job there writes as it
        # changes phase; 1–5, how the node's column draws from the tape: its
        # stream's row, the draws that stream takes on a quiet and on a
        # compute tick (the job's width, twice that), and where the node's
        # RAPL draw sits among them on each (its rank, twice that plus one);
        # 6, the rank's whole epochs done; 7, at a job's first row, its
        # job-global epoch count.  A node with no job (rows 0–5 of ``_free``)
        # is FREE, in node order, and draws from its own stream.
        self._ints = np.zeros((8, num_nodes), dtype=np.int64)
        self._seat, self._draws = self._ints[0], self._ints[1:6]
        self._counts, self._barrier = self._ints[6], self._ints[7]
        self._free = np.repeat([[FREE << CLASS_SHIFT], [0], [1], [2], [0], [1]], num_nodes, axis=1)
        self._free[:2] += np.arange(num_nodes)
        self._ints[:6] = self._free
        self._started = 0  # jobs ever started
        self._tenant: list[RunningJob | None] = [None] * num_nodes  # at its first row
        # First rows of the running jobs whose model moves with their
        # progress (a power wave, phases): each holds every window to a tick.
        self._varying: set[int] = set()
        # Float rows, one per rank: 0–10, its job's constants (the setup and
        # teardown seconds, truth curve a, b, c, p_min, p_demand, jitter σ,
        # run multiplier and epochs) and its node's perf multiplier; 11, its
        # fractional epochs done (``progress``); 12–14, at a job's first
        # row, its ledger (``phase_elapsed``, ``_compute_energy``,
        # ``_compute_seconds``); 15, the node's idle watts.  Rows 0–14 are
        # the job's start block.
        self._floats = np.zeros((16, num_nodes))
        self.progress = self._floats[11]
        self._ledger = self._floats[12:15]
        self.idle_watts = self._floats[15]
        self.idle_watts[:] = IDLE_NODE_POWER
        # Every job's epoch times, room for 16 a node before the log first
        # grows: a window never pays for a growth in a fresh cluster's first
        # few ticks.
        self._stamps = EpochLog(16 * num_nodes)
        self._layout: _Layout | None = None
        self._caps: tuple[bytes, np.ndarray] | None = None  # (raw limits, caps under them)
        self.agents = JobAgentGroup(
            self._energy, self._limit, (PACKAGE_MIN_POWER, PACKAGE_TDP), self._barrier, self.caps
        )
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
                        self.agents.meter_cells(i),
                    ),
                )
            )
        for i, node_rng in enumerate(node_rngs):
            self._tape.let(i, node_rng)
        self.running: dict[str, RunningJob] = {}
        self.completed: list[ApplicationTotals] = []
        self.killed: list[tuple[float, str]] = []  # (time, job_id) of kills
        self.released: list[str] = []  # every job that left, completed or killed, in order
        self._power_history: list[tuple[float, float]] = []

    # ------------------------------------------------------------ node pool

    def _idle(self) -> np.ndarray:
        # Of booleans, ``a > b`` is ``a and not b``: free and not crashed.
        return np.greater(self._seat >= _FREE_FLOOR, self._down)

    def idle_nodes(self) -> list[Node]:
        """Schedulable nodes in ascending ``node_id`` (the allocation order)."""
        return [self.nodes[i] for i in np.flatnonzero(self._idle()).tolist()]

    def idle_count(self) -> int:
        """``len(idle_nodes())``, without building the list."""
        return int(np.count_nonzero(self._idle()))

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
        """Place a job on the first idle nodes (or on ``nodes``, exactly
        ``job_type.nodes`` of them, each once) and start it.

        Starting is column writes — the job's ranks' constants, draw
        columns, seats and agent tree, at its rows — plus one tape row, let
        to a generator of its own, and the views over them
        (:class:`RunningJob`).  Nothing is written before the arguments have
        been checked.
        """
        if job_id in self.running:
            raise ValueError(f"job id {job_id!r} already running")
        width = job_type.nodes
        if width > 1 << RANK_BITS:
            raise ValueError(f"job {job_id}: needs 1 to {1 << RANK_BITS} nodes, got {width}")
        if nodes is None:
            free = self._idle().nonzero()[0]
            if free.size < width:
                raise RuntimeError(
                    f"not enough idle nodes for {job_id}: need {width}, have {free.size}"
                )
            rows = free[:width]
            ids = rows.tolist()
            nodes = [self.nodes[i] for i in ids]
            root = ids[0]
            # Rows in a run are written through a slice, a basic index numpy
            # writes several times faster than an index array.
            at = slice(root, root + width) if ids[-1] - root == width - 1 else rows
        else:
            rows = at = np.array([n.node_id for n in nodes])
            if len(nodes) != width:
                raise ValueError(
                    f"job {job_id}: {job_type.name} runs on {width} nodes, got {len(nodes)}"
                )
            if np.unique(rows).size != rows.size:
                raise ValueError(f"job {job_id}: a node is listed twice in {rows.tolist()}")
            busy = [n.node_id for n in nodes if not n.is_idle]
            if busy:
                raise RuntimeError(f"nodes already allocated: {busy}")
            root = int(rows[0])
        stream = spawn_one(self._job_rng)
        # Run-level performance coefficient: one draw per execution, giving
        # the run-to-run variance visible in Fig. 3's error bars.  It is the
        # stream's first draw, taken before the stream has a row: the row
        # fills from the second on, at the first window that reads it.
        run_multiplier = 1.0
        if self.run_noise:
            run_multiplier = float(np.exp(0.0 + job_type.noise * stream.standard_normal()))
        row = len(self.nodes) + root  # the job's stream on the tape
        self._tape.let(row, stream)
        rng = TapeStream(self._tape, row)
        self._started += 1
        # The start blocks: seats in the setup class, draws from the job's
        # row, no epochs; the job's constants, no progress, a zero ledger.
        # Per-node constants are read now, not at construction: a caller may
        # have tuned ``perf_multiplier`` in between.
        truth = job_type.truth
        self._ints[:, at] = _job_ints(width) + np.array(
            (self._started << RANK_BITS | SETUP << CLASS_SHIFT, row, 0, 0, 0, 0, 0, 0)
        )[:, None]
        self._floats[:15, at] = np.array((
            job_type.setup_time, job_type.teardown_time, truth.a, truth.b, truth.c,
            job_type.p_min, job_type.p_demand, job_type.noise, run_multiplier, job_type.epochs,
            nodes[0].perf_multiplier, 0.0, 0.0, 0.0, 0.0,
        ))[:, None]
        if width > 1:  # each rank's own node's
            self._floats[10, at] = [node.perf_multiplier for node in nodes]
        for node in nodes:
            node.job_id = job_id
        now = self.clock.now
        job = RunningJob(
            job_id,
            job_type,
            nodes,
            rows,
            at,
            submit_time=now if submit_time is None else submit_time,
            start_time=now,
            rng=rng,
            cells=(
                self.progress, self._counts, self._barrier, self._ledger, self._seat,
                self._stamps, self.agents.start(rows, at),
            ),
            serial=self._started,
            run_multiplier=run_multiplier,
            energy=self._energy_of(at),
        )
        self._tenant[root] = job
        if job_type.power_wave or isinstance(job_type, PhasedJobType):
            self._varying.add(root)
        self.running[job_id] = job
        return job

    def _energy_of(self, at: slice | np.ndarray) -> float:
        """The energy of the nodes at ``at``, summed as ``Node.total_energy``
        of each, in turn."""
        return sum(map(sum, self._energy[at].tolist()))

    def _release(self, job: RunningJob) -> None:
        """Take ``job`` off the cluster and free its nodes."""
        del self.running[job.job_id]
        self.released.append(job.job_id)
        at = job.at
        for node in job.nodes:
            node.job_id = None
        job.nodes[0].pio.detach_profiler()
        self._ints[:6, at] = self._free[:, at]
        self._tenant[job.root] = None
        self._varying.discard(job.root)
        self.agents.release(at)
        # Its rows may be re-let while its ledger and stream are still read.
        job.detach(self._energy_of(at))

    def _retire_done(self, jobs) -> None:
        """Release every finished job among ``jobs`` and book its totals, in
        start order, as per-tick stepping books them."""
        done = [j for j in jobs if j.is_done]
        done.sort(key=lambda job: job._order)  # the start number, above the rank
        for job in done:
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
            watts = np.minimum(
                np.maximum(self._limit * POWER_UNIT_WATTS, PACKAGE_MIN_POWER), PACKAGE_TDP
            )
            caps = watts[:, 0].copy()
            for p in range(1, watts.shape[1]):
                caps += watts[:, p]
            self._caps = (raw, caps)
        return self._caps[1]

    @staticmethod
    def rank_model(consts: np.ndarray, cap: np.ndarray) -> tuple[np.ndarray, ...]:
        """Tick invariants of statically-profiled compute ranks under ``cap``.

        ``consts`` is those ranks' columns of ``_floats``, rows 2–10.  Returns
        ``(demand, rate base, jitter σ, perf, epochs)``: ``cap`` clamped into
        ``[p_min, p_demand]`` is both the draw demand and the truth curve's
        argument; ``rate base`` is τ(demand)·run multiplier.
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
        """True when a window may span more than one tick: no running job
        has an epoch-periodic power wave or phased curves, whose model the
        kernel looks up anew each tick."""
        return not self._varying

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
        # call costs is the cost here), then one lookup per job for the job
        # objects a window turns.
        seat, nf = self._seat, len(self.nodes)
        if b"\x01" in stamp[1]:
            # A crashed node is free (``Node.fail`` refuses an allocated one)
            # and leaves the columns: one more class after FREE, sorted last.
            seat = np.where(self._down, seat + (1 << CLASS_SHIFT), seat)
            nf -= int(np.count_nonzero(self._down))
        order = np.argsort(seat)
        seat = seat[order]
        nc, ns, nq = np.searchsorted(seat, _CLASS_FLOORS).tolist()
        rows = order[:nf]  # compute, setup and teardown ranks, idle nodes
        rank = seat[:nq] & _RANK_MASK
        firsts = np.flatnonzero(rank == 0)  # where each job's columns begin
        bounds = firsts.tolist() + [nq]
        ncj, nsj = bisect_left(bounds, nc), bisect_left(bounds, ns)
        starts = firsts[:nsj]
        roots = rows[firsts]
        tenant = self._tenant
        jobs = [tenant[r] for r in roots.tolist()]
        columns = (self._counts, self._barrier)
        serials = (seat[starts] & _ORDER_MASK) >> RANK_BITS  # epoch log keys
        table = self._floats[:, rows]
        timers = table[:2, firsts]  # each job's setup and teardown seconds
        draws = self._draws[:, rows]
        stream_cols = np.flatnonzero(draws[3] == 0)  # each job's rank 0, each idle node
        wider = []
        if ns > nsj:  # some active job is wider than one node
            for p in range(1, int(rank[:ns].max()) + 1):
                column = np.flatnonzero(rank[:ns] == p)
                wider.append((np.searchsorted(starts, column - p), column))
        varying = []
        if self._varying:
            varying = [j for j, job in enumerate(jobs[:ncj]) if job.root in self._varying]
        return _Layout(
            stamp=stamp,
            jobs=jobs,
            split=(ncj, nsj),
            bounds=bounds,
            computing=EpochBatch(*columns, rows[:nc], starts[:ncj], self._stamps, serials[:ncj]),
            active=EpochBatch(*columns, rows[:ns], starts, self._stamps, serials),
            rows=rows,
            consts=table[2:11, :ns],
            idle=table[15],
            roots=roots,
            computes=np.arange(nf)[None] < nc,
            job_epochs=table[9, starts],
            teardown=timers[1, :ncj],
            expiry=np.concatenate((timers[0, ncj:nsj], timers[1, nsj:])),
            wider=wider,
            tape_of=draws[0],
            tape_rows=draws[0, stream_cols],
            stream_cols=stream_cols,
            takes=draws[1:3],
            reads=draws[3:],
            varying=varying,
        )

    def advance_stride(self, times: np.ndarray, dt: float) -> tuple[int, np.ndarray]:
        """Advance physics across every instant in ``times`` in one call.

        Returns ``(M, totals)``: the number of ticks actually executed and
        the per-tick cluster power, bit-identical to ``M`` successive
        :meth:`advance` calls at those instants.  Jobs turn setup→compute
        and compute→teardown inside the window, but it never runs past a
        release (a teardown timer expiring) — freed nodes reach the scheduler
        on the very next tick, as under per-tick stepping — nor past a job's
        second turn.  It may also stop short of ``len(times)`` without
        either: it is sized to the nearest foreseeable release, which jitter
        can delay, and a job with a power wave or phases holds it to one
        tick (:meth:`stride_ready`).

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
        elementwise twin of a per-node, per-tick loop (same IEEE ops, same
        order; ``tests/hwsim_reference.py`` keeps it as the oracle), every
        RNG stream is read exactly as that loop reads it, tick after tick
        (``standard_normal``·σ ≡ ``normal(0, σ)``), and every sequential
        accumulation is an ordered fold along its axis (:func:`_fold`), so
        ``T`` ticks here are bit-identical to ``T`` reference ticks.  A
        window holding a job whose model moves with its progress is one
        tick: a phased rank's curve and demand are its phase's at the tick's
        start, and a power wave scales a rank's demand by its progress
        after.  Every stream is a row of the cluster's tape
        (:class:`~repro.util.rng.NormalTape`), so a window's draws are one
        gather at positions the layout and the mask decide, and per-job state
        is columns too: Python runs per tape row refilled and per job that
        changes phase, and for nothing else.

        A per-tick compute/quiet mask places each job by what it does in the
        window: an active job computes from its first compute tick (a compute
        job's first, a setup job's after its timer expires, its ``wake``) up
        to its compute turn, and is quiet on the others: one RAPL draw per
        rank, idle demand, no progress.  Timers are deterministic and read
        before anything is drawn: a teardown expiry (a release) bounds the
        window, a setup expiry sets ``wake``, and only a window in which some
        setup job wakes takes the setup ranks into the compute pass (the
        layout's ``active`` batch, not ``computing``).  An epoch completion
        is read off the trajectory; before the last tick it makes that job's
        later ticks quiet, so its stream reads one draw a rank there instead
        of two (the values before the turn are where they were).  The release
        that turn starts, or a setup job's second turn, ends the window
        there.  Each stream's cursor then moves past exactly the draws the
        window kept: what it read beyond them is that stream's next.
        Nothing — no cursor, no progress — moves before the inputs have been
        validated.
        """
        if dt <= 0:
            raise ValueError(f"dt must be positive, got {dt}")
        lay = self._membership()
        rows, jobs, bounds = lay.rows, lay.jobs, lay.bounds
        ncj, nsj = lay.split
        span = 1 if self._varying else times.size
        book = self._ledger[:, lay.roots]  # the jobs' ledger entries, in ``jobs`` order
        wake = []  # per setup job, when one computes inside the window: its first compute tick
        after = ends = stop = None  # per compute job; per computing job, twice
        if span > 1:
            # phase_elapsed's chain of adds run ahead: from the 0.0 a turn
            # sets (``restart``) and from each quiet job's entry (``ahead``).
            chains = _fold(np.concatenate(([0.0], book[0, ncj:])), np.full((span, 1), dt))
            restart, ahead = chains[:, 0], chains[:, 1:]
            timer = (ahead[1:] < lay.expiry).sum(axis=0) + 1  # the tick it expires
            span = min(span, int(timer[nsj - ncj :].min(initial=span)))  # a release
            if timer[: nsj - ncj].min(initial=span) < span:
                wake = timer[: nsj - ncj]
        # The jobs that may compute in the window: the compute jobs, and the
        # setup jobs when one of them wakes inside it.
        epochs_of = lay.active if len(wake) else lay.computing
        ranks, starts = epochs_of.rows, epochs_of.starts
        na = ranks.size
        cap = self.caps()[rows]
        idle = lay.idle
        consts, wave = lay.consts[:, :na], None
        if lay.varying:
            consts, wave = self._vary(lay, consts)
        demand, base, sigma, perf, epochs = self.rank_model(consts, cap[:na])
        job_epochs = lay.job_epochs[: starts.size]
        if span > 1 and starts.size:
            # A compute job computes from the window's first tick, a setup job
            # from the one after its timer expires (``wake``); a compute job's
            # turn comes ``after`` ticks before its release.  Ticks past the
            # window's end are computed and thrown away, so ask for no more
            # than the nearest foreseeable end: each job's slowest rank at its
            # jitter-free rate, from its setup timer on, to its release (a
            # setup job: its compute turn).  Truncation covers what jitter
            # brings forward; what it delays just ends this window a tick
            # early.
            left = (epochs - self.progress[ranks]) * base / (perf * dt)
            end = np.ceil(np.maximum.reduceat(left, starts))
            after = np.maximum(np.searchsorted(restart, lay.teardown), 1)
            end[:ncj] += after
            end[ncj:] += wake
            span = min(span, max(1, int(end.min())))
            wake = np.minimum(wake, span).tolist()
        early = [ncj + i for i, w in enumerate(wake) if w < span]  # setup jobs that wake
        # On which ticks each column computes: the compute ranks throughout,
        # a waking setup job's from its ``wake``, until a job turns inside
        # the window.  What each asks for then: its demand; quiet ranks and
        # idle nodes ask for idle power.
        if span == 1:  # the layout keeps these per dt (no job turns or wakes)
            live, tick, taken, at, need = lay.one_tick(dt)
        else:
            live = lay.computes.repeat(span, axis=0)
            for j in early:
                live[wake[j - ncj] :, bounds[j] : bounds[j + 1]] = True
            tick = np.where(live, dt, 0.0)  # the seconds each column computes per tick
            taken, at = _tape_reads(lay.takes, lay.reads, live)
            need = taken[-1, lay.stream_cols]
        pull = np.where(live, np.concatenate((demand, idle[na:])), idle)
        # RAPL noise scales the demand by 1+ε > 0, and a power wave (under 1)
        # by a positive factor too, so a draw is negative exactly when both
        # the demand and the idle floor under it are.
        if np.maximum(pull, idle).min(initial=0.0) < 0:
            raise ValueError("cannot consume negative energy: a node would draw < 0 W")
        # Every draw the window may take is on the tape before one is read,
        # and none is consumed until the window's length is known.  A compute
        # tick's jitter is the draw before its RAPL one; a quiet tick's is
        # read at its RAPL draw, and multiplied by a 0.0 tick.
        tape = self._tape
        tape.reserve(lay.tape_rows, need)
        origin = tape.head[lay.tape_of]
        at = at + origin
        zj = tape.values[at[:, :na] - live[:, :na]]
        rate = perf / (base * np.exp(zj * sigma)) * tick[:, :na]  # 0.0 on a quiet tick
        grown = _fold(self.progress[ranks], rate)
        if wave is not None:  # a one-tick window: every active rank computes
            # Epoch-periodic draw signature (compute vs. exchange phases
            # inside each iteration), what §8's automatic epoch detection
            # listens for.
            pull[:, :na] = demand * (1.0 + wave * np.sin(2.0 * np.pi * (grown[1:] % 1.0)))
        # A rank's profiler count is its floored progress, capped at epochs;
        # a job's barrier is the least of its ranks' counts.
        done, floor = epochs_of.preview(np.minimum(np.floor(grown[1:]), epochs))
        # A job turns compute→teardown on the first tick its barrier reaches
        # epochs (``ends``).  That job's release, or a setup job's second
        # turn, is the window's last tick.
        finished = floor[-1] >= job_epochs
        if after is not None and finished.any():
            ends = (floor[1:] < job_epochs).sum(axis=0) + 1
            stop = ends.copy()
            stop[:ncj] += after
            last = min(span, int(stop.min()))
            turned = (ends[:ncj] < last).nonzero()[0].tolist()
            if last < span or turned:
                # The window ends at ``last``, and a turned job is quiet after
                # its turn: one draw a rank a tick, no progress.
                span = last
                live, tick, pull = live[:span], tick[:span], pull[:span]
                grown, done, floor = grown[: span + 1], done[: span + 1], floor[: span + 1]
                finished = ends <= span
                wake = [min(w, span) for w in wake]
                for j in turned:
                    k, lo, hi = int(ends[j]), bounds[j], bounds[j + 1]
                    live[k:, lo:hi] = False
                    tick[k:, lo:hi] = 0.0
                    pull[k:, lo:hi] = idle[lo:hi]
                    grown[k + 1 :, lo:hi] = grown[k, lo:hi]
                    done[k + 1 :, lo:hi] = done[k, lo:hi]
                    floor[k + 1 :, j] = floor[k, j]
                taken, at = _tape_reads(lay.takes, lay.reads, live)
                at += origin
        epochs_of.record(done, floor, times)  # a falling count raises here: no cell written yet
        self.progress[ranks] = grown[-1]
        # The RAPL draws of the ticks kept, and each stream's cursor past
        # exactly those: a draw the window did not keep is the stream's next.
        ze = tape.values[at]
        tape.head[lay.tape_rows] = (origin + taken[-1])[lay.stream_cols]
        # A node's draw, for all columns: RAPL noise, cap ceiling, idle
        # floor, energy split evenly over the packages.
        power = np.minimum(cap, np.maximum(pull * (1.0 + ze * 0.01), idle))
        joules = power * dt / NODE_PACKAGES
        self._energy[rows] = _after(self._energy[rows], joules[:, :, None])
        # Cluster power per tick: ordered fold in node order; failed nodes
        # hold 0 W.
        series = np.empty((span, len(self.nodes)))
        series[:] = self._power
        series[:, rows] = power
        self._power[rows] = power[-1]
        totals = series.cumsum(axis=1)[:, -1]
        # Job power per tick: left to right over the job's nodes, one add per
        # position (``np.add.reduceat`` and ``sum`` pair terms up otherwise).
        heads = lay.active.starts  # each active job's first column
        drawn = power[:, heads]
        for wide, column in lay.wider:
            drawn[:, wide] += power[:, column]
        # RunningJob.settle's += chains; a quiet tick's compute entries get +0.0.
        steps = np.zeros((span, *book.shape))
        steps[:, 0] = dt
        steps[:, 2, :nsj] = tick[:, heads]
        steps[:, 1, :nsj] = drawn * steps[:, 2, :nsj]
        book = _after(book, steps)
        self._ledger[:, lay.roots] = book
        # Each turn at its own tick, phase_elapsed as it stood there (the
        # ledger's own value on the last tick); a turn restarts the chain,
        # and a job turns twice only on the last tick.
        ticks = times[:span].tolist()
        turns = np.concatenate((finished[:ncj], book[0, ncj:] >= lay.expiry))
        turning = turns.nonzero()[0].tolist()
        firsts = seconds = ()
        if turning and after is not None:
            # A compute job turns at its last epoch and again at its release,
            # a setup job at its timer and again at its last epoch; past
            # these lists (a teardown job, any job in a one-tick window) the
            # one turn is on the last tick.
            firsts = (ends[:ncj].tolist() if ends is not None else [span] * ncj) + wake
            seconds = stop.tolist() if stop is not None else ()
        for j in turning:
            job = jobs[j]
            t = firsts[j] if j < len(firsts) else span
            if j >= ncj and t < span:  # a setup timer: its check reads phase_elapsed
                job.phase_elapsed = ahead[t, j - ncj]
            job.turn_phase(ticks[t - 1])
            if j < len(seconds) and seconds[j] <= span:
                job.phase_elapsed = restart[seconds[j] - t]
                t = seconds[j]
                job.turn_phase(ticks[t - 1])
            if t < span and not job.is_done:
                job.phase_elapsed = restart[span - t]
        self._retire_done([jobs[j] for j in turning])
        self._power_history.extend(zip(ticks, totals.tolist()))
        return span, totals

    def _vary(self, lay: _Layout, consts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The compute ranks' constants and power-wave amplitudes, in a
        layout with varying jobs: a phased rank's ``a, b, c, p_demand`` are
        those of the phase its progress is in as the window opens."""
        consts, wave = consts.copy(), np.zeros(consts.shape[1])
        for j in lay.varying:
            lo, hi = lay.bounds[j], lay.bounds[j + 1]
            job_type = lay.jobs[j].job_type
            wave[lo:hi] = job_type.power_wave
            if isinstance(job_type, PhasedJobType):
                frac = self.progress[lay.rows[lo:hi]] / consts[7, lo:hi]
                consts[[0, 1, 2, 4], lo:hi] = job_type.phase_constants(frac)
        return consts, wave

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


def _tape_reads(
    takes: np.ndarray, reads: np.ndarray, live: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(taken, at)`` for a window whose columns compute on the ticks
    ``live`` marks (a layout's ``takes`` and ``reads``): the draws each
    column's stream has taken through each tick, and where on the tape, from
    the stream's cursor, each column's RAPL draw of each tick is."""
    take = np.where(live, takes[1], takes[0])
    at = np.where(live, reads[1], reads[0])
    if len(live) == 1:
        return take, at
    taken = take.cumsum(axis=0)
    return taken, taken - take + at


def _after(start: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """``start`` after adding each of ``steps`` in turn: :func:`_fold`'s last row."""
    return start + steps[0] if len(steps) == 1 else _fold(start, steps)[-1]
