"""The per-second tabular cluster simulation loop (paper §5.6).

"Each simulated second, the simulator updates the state of the node table,
then updates the view of the cluster seen by the job scheduler and power
manager, then schedules jobs and caps power.  The policy updates inputs to
the node table that will be processed in the node-update stage of the next
time step."

The power manager applies caps uniformly across active nodes (the AQA rule,
§4.4.2), with an optional QoS-aware variant that exempts at-risk jobs from
capping (§6.4 investigates this feedback path).

The loop advances in *windows* (:meth:`TabularClusterSimulator._advance`):
the node update runs on every step, intake and scheduling only on a step
where a submit or a completion lets them act, and capping there and on a step
where the target moved — on any other step they would find nothing to do.  A
step is a window of one, and no output depends on how steps fall into windows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.aqa.queues import QueueSet, WorkQueue
from repro.aqa.scheduler import WeightedScheduler
from repro.tabsim.tables import JobTable, NodeTable, SimJobType
from repro.tabsim.variation import draw_node_multipliers
from repro.util.rng import ensure_rng
from repro.workloads.nas import IDLE_NODE_POWER, P_NODE_MAX, P_NODE_MIN
from repro.workloads.trace import Schedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.telemetry import Telemetry

__all__ = ["SimConfig", "SimResult", "TabularClusterSimulator"]

#: Longest window, in steps.  A completion cuts its window short and the rows
#: computed past it are thrown away; this bounds that waste (and the window's
#: memory) when submits and completions are minutes apart.
_MAX_WINDOW = 16


def _waterfill_cap(
    available: float, demand_max: np.ndarray, p_min: float, p_max: float
) -> float:
    """The uniform cap c with Σ min(c, demand_max) = available, clamped.

    Solved by sorting the demands once and scanning the breakpoints — the
    classic waterfilling argument, O(n log n) per budgeting round.
    """
    n = demand_max.size
    if n == 0:
        return p_max
    order = np.sort(demand_max)
    # Below breakpoint k (0-based), the first k nodes saturate at their
    # demand and the rest sit at the cap: total(c) = prefix[k] + (n-k)·c.
    prefix = np.concatenate([[0.0], np.cumsum(order)])
    lower = np.concatenate([[0.0], order[:-1]])
    return _waterfill_scan(
        available, float(demand_max.sum()), order, prefix,
        n - np.arange(n), lower - 1e-12, order + 1e-12, p_min, p_max
    )


def _waterfill_scan(
    available: float,
    demand_sum: float,
    order: np.ndarray,
    prefix: np.ndarray,
    denom: np.ndarray,
    lower_eps: np.ndarray,
    upper_eps: np.ndarray,
    p_min: float,
    p_max: float,
) -> float:
    """Waterfill breakpoint scan over presorted demands.

    Split out of :func:`_waterfill_cap` so the simulator can reuse the
    sorted demands and prefix sums across ticks — the busy set (and hence
    the demand vector) only changes when jobs start or finish.
    """
    n = order.size
    if n == 0 or available >= demand_sum:
        return p_max
    if available <= n * p_min:
        return p_min
    cands = (available - prefix[:-1]) / denom
    valid = (cands >= lower_eps) & (cands <= upper_eps)
    first = int(np.argmax(valid))
    c = cands[first] if valid[first] else order[-1]
    # Scalar clamp: same value as np.clip for the finite c produced above.
    return float(min(max(c, p_min), p_max))


@dataclass
class _BusyState:
    """Gathers over the busy node set, cached between assignment changes.

    Every array but the ``slow_*`` pair is aligned with ``busy_idx``; the
    ``demand_*`` fields are the waterfill's sorted-demand state.  The cache
    is invalidated by the node table's ``version`` counter (bumped on
    assign/release), so the stages reuse these instead of re-gathering
    1000-wide fancy indexes.
    """

    version: int
    busy_idx: np.ndarray
    job_of: np.ndarray
    type_of: np.ndarray
    p_lo: np.ndarray
    p_hi: np.ndarray
    p_span: np.ndarray
    t_fast: np.ndarray
    t_slow: np.ndarray
    t_span: np.ndarray
    perf: np.ndarray
    demand_sum: float
    demand_order: np.ndarray
    demand_prefix: np.ndarray
    demand_denom: np.ndarray
    demand_lower_eps: np.ndarray
    demand_upper_eps: np.ndarray
    #: One entry per running job: its index, and where its slowest node
    #: (``NodeTable.slowest``) sits in the busy-aligned arrays.
    slow_job: np.ndarray
    slow_pos: np.ndarray

    def job_min(self, progress: np.ndarray) -> np.ndarray:
        """Each running job's minimum over its nodes of busy-aligned
        ``progress``, aligned with ``slow_job``."""
        return progress[self.slow_pos]


@dataclass
class SimConfig:
    """Cluster and demand-response inputs (paper §5.6).

    "Input cluster properties include average idle power per node, total
    node count, average node utilization, and demand response parameters"
    (``average_power``, ``reserve``, and the regulation ``signal``).  Each
    node's idle draw and cap range are the testbed's, which
    :mod:`repro.workloads.nas` states for the emulator too.
    """

    num_nodes: int = 1000
    average_power: float = 180_000.0
    reserve: float = 25_000.0
    dt: float = 1.0
    variation_band: float = 0.0  # "99 % of performance within ±band"
    qos_aware_capping: bool = False
    qos_risk_fraction: float = 0.8  # exempt jobs projected beyond this × limit
    work_conserving: bool = False
    # Power-aware admission (§6.4: AQA "primarily reduc[es] power by
    # refraining from scheduling jobs to idle nodes"): defer job starts that
    # would push the cluster's *minimum* enforceable power past the target.
    power_aware_admission: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        """Range-check the inputs, naming the offending field (as
        ``AnorConfig`` does): ``dt = 0`` would never advance the clock."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be ≥ 1, got {self.num_nodes}")
        for name in ("dt", "average_power"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        for name in ("reserve", "qos_risk_fraction"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be ≥ 0, got {getattr(self, name)}")
        if self.reserve >= self.average_power:
            raise ValueError(
                f"reserve {self.reserve} must stay below average_power "
                f"{self.average_power}: the target could reach zero"
            )

    def target(self, y: float) -> float:
        return self.average_power + self.reserve * y


@dataclass
class SimResult:
    """Time series and final job ledger of one simulation."""

    power_trace: np.ndarray  # columns: time, target, measured
    job_table: JobTable
    job_types: list[SimJobType]
    config: SimConfig

    def qos_by_type(self, *, completed_only: bool = True) -> dict[str, np.ndarray]:
        """QoS degradation samples per job type (paper §5.2)."""
        jt = self.job_table
        out: dict[str, np.ndarray] = {}
        sojourn = jt.sojourn_times()
        done = jt.completed_mask()
        for idx, sim_type in enumerate(self.job_types):
            mask = jt.type_idx[: jt.count] == idx
            if completed_only:
                mask = mask & done
            q = sojourn[mask] / sim_type.t_at_p_max - 1.0
            out[sim_type.name] = q
        return out

    def qos_percentile_by_type(self, q: float = 90.0) -> dict[str, float]:
        return {
            name: float(np.percentile(vals, q)) if vals.size else float("nan")
            for name, vals in self.qos_by_type().items()
        }

    def tracking_errors(
        self, *, t_start: float | None = None, t_end: float | None = None
    ) -> np.ndarray:
        """|measured − target| / reserve per sample (§4.4.2).

        ``t_start``/``t_end`` restrict the evaluation to the committed
        demand-response window — tracking is not scored while the cluster is
        still filling up or draining outside its bid period.
        """
        if self.config.reserve <= 0:
            raise ValueError("tracking error undefined with zero reserve")
        tr = self.power_trace
        mask = np.ones(tr.shape[0], dtype=bool)
        if t_start is not None:
            mask &= tr[:, 0] >= t_start
        if t_end is not None:
            mask &= tr[:, 0] <= t_end
        return np.abs(tr[mask, 2] - tr[mask, 1]) / self.config.reserve

    @property
    def completed_jobs(self) -> int:
        return int(self.job_table.completed_mask().sum())


class TabularClusterSimulator:
    """A 1000-node-scale cluster as vectorised state tables."""

    def __init__(
        self,
        job_types: Sequence[SimJobType],
        schedule: Schedule,
        signal,
        config: SimConfig | None = None,
        *,
        queue_weights: dict[str, float] | None = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        if not job_types:
            raise ValueError("need at least one job type")
        self.config = config or SimConfig()
        cfg = self.config
        self.job_types = list(job_types)
        self.type_index = {t.name: i for i, t in enumerate(self.job_types)}
        if len(self.type_index) != len(self.job_types):
            raise ValueError("duplicate job type names")
        self.signal = signal
        self.schedule = schedule
        self._pending = sorted(
            schedule.requests, key=lambda r: (r.submit_time, r.job_id)
        )
        rng = ensure_rng(cfg.seed)
        self.nodes = NodeTable(cfg.num_nodes)
        self.nodes.perf_mult = draw_node_multipliers(
            cfg.num_nodes, cfg.variation_band, seed=rng
        )
        self.jobs = JobTable(len(self.job_types))
        queues = QueueSet(
            WorkQueue(t.name, weight=(queue_weights or {}).get(t.name, 1.0))
            for t in self.job_types
        )
        self.scheduler = WeightedScheduler(queues, work_conserving=cfg.work_conserving)
        self._queued_index: dict[str, int] = {}  # job_id -> job table index
        self.now = 0.0
        self._trace: list[tuple[float, float, float]] = []
        # Cached per-type arrays for the vectorised node update.
        self._t_fast = np.array([t.t_at_p_max for t in self.job_types])
        self._t_slow = np.array([t.t_at_p_min for t in self.job_types])
        self._tp_min = np.array([t.p_min for t in self.job_types])
        self._tp_max = np.array([t.p_max for t in self.job_types])
        self._tp_span = self._tp_max - self._tp_min
        self._t_span_by_type = self._t_fast - self._t_slow
        self._qos_limits = np.array([t.qos_limit for t in self.job_types])
        self._busy_cache: _BusyState | None = None
        self._pending_pos = 0  # intake cursor into the sorted request list
        self._next_submit = (
            self._pending[0].submit_time if self._pending else float("inf")
        )
        self._queued_count = 0  # jobs submitted but not yet started
        # schedule() is a pure function of (idle count, queue contents,
        # running-node shares) and leaves them at a fixed point; while none
        # of them has changed since the last round, the round can be skipped
        # outright.  Submissions, completions and deferred starts set dirty.
        self._sched_dirty = True
        self._sched_idle_memo = -1
        # When every busy node carries the same cap (the uniform rule without
        # QoS exemptions), the node update only needs per-*type* arithmetic;
        # the per-node progress increments, the power table and its sum are
        # memoized on the (cap, assignment-version, dt) triple since the cap
        # frequently sits clamped at p_min/p_max from one window to the next.
        self._uniform_cap: float | None = None
        self._uniform_cap_version = -1
        self._cap_target_memo = float("nan")  # nan != nan: first call always runs
        self._cap_version_memo = -1
        self._rate_cache: tuple[tuple[float, int, float], np.ndarray, float] | None = None
        #: Windows advanced so far; the trace has one row per *step*.
        self.windows = 0
        # Observability (DESIGN.md §8): gauges on the tabular tier's state.
        # None (the sweep's default) loads no telemetry module at all.
        self.telemetry = telemetry
        if telemetry is not None and telemetry.enabled:
            reg = telemetry.registry
            self._mx_ticks = reg.counter(
                "tabsim_ticks_total", "simulated seconds stepped"
            )
            self._mx_power = reg.gauge(
                "tabsim_cluster_power_watts", "tabular cluster measured power"
            )
            self._mx_target = reg.gauge(
                "tabsim_target_watts", "demand-response target"
            )
            self._mx_busy = reg.gauge("tabsim_busy_nodes", "nodes running jobs")
            self._mx_queue = reg.gauge(
                "tabsim_queued_jobs", "jobs submitted but not started"
            )
            self._mx_cap = reg.gauge(
                "tabsim_uniform_cap_watts", "uniform per-node cap (when uniform)"
            )

    def _busy_state(self) -> _BusyState:
        """Current busy-set gathers, refreshed only when assignments change."""
        st = self._busy_cache
        if st is None or st.version != self.nodes.version:
            nodes = self.nodes
            busy_idx = np.flatnonzero(nodes.job_idx >= 0)
            job_of = nodes.job_idx[busy_idx]
            type_of = self.jobs.type_idx[job_of]
            p_lo = self._tp_min[type_of]
            p_hi = self._tp_max[type_of]
            t_fast = self._t_fast[type_of]
            t_slow = self._t_slow[type_of]
            order = np.sort(p_hi)
            prefix = np.concatenate([[0.0], np.cumsum(order)])
            n = busy_idx.size
            lower = np.concatenate([[0.0], order[:-1]]) if n else order
            slow_pos = np.flatnonzero(nodes.slowest[busy_idx])
            st = _BusyState(
                version=nodes.version,
                busy_idx=busy_idx,
                job_of=job_of,
                type_of=type_of,
                p_lo=p_lo,
                p_hi=p_hi,
                p_span=p_hi - p_lo,
                t_fast=t_fast,
                t_slow=t_slow,
                t_span=t_fast - t_slow,
                perf=nodes.perf_mult[busy_idx],
                demand_sum=float(p_hi.sum()),
                demand_order=order,
                demand_prefix=prefix,
                demand_denom=n - np.arange(n),
                demand_lower_eps=lower - 1e-12,
                demand_upper_eps=order + 1e-12,
                slow_job=job_of[slow_pos],
                slow_pos=slow_pos,
            )
            self._busy_cache = st
        return st

    # --------------------------------------------------------- stage 1: nodes

    def _node_rates(self, st: _BusyState, dt: float) -> tuple[np.ndarray, float]:
        """Per-step progress increment of each busy node, and the cluster's
        power, under the caps in force; leaves ``nodes.power`` holding the
        per-node draw.  Neither changes until a cap or an assignment does."""
        nodes = self.nodes
        uniform = (
            self._uniform_cap is not None
            and self._uniform_cap_version == nodes.version
        )
        if uniform:
            # Every busy node carries the same scalar cap, so the clamp /
            # interpolation collapses to one evaluation per *job type*
            # followed by a gather — elementwise identical to the
            # per-node arithmetic below (same IEEE ops on equal inputs).
            c = self._uniform_cap
            key = (c, nodes.version, dt)
            memo = self._rate_cache
            if memo is not None and memo[0] == key:
                return memo[1], memo[2]
            cap_t = np.minimum(np.maximum(c, self._tp_min), self._tp_max)
            frac_t = (cap_t - self._tp_min) / self._tp_span
            exec_t = self._t_slow + frac_t * self._t_span_by_type
            step = (st.perf / exec_t[st.type_of]) * dt
            busy_power = np.minimum(c, self._tp_max)[st.type_of]
        else:
            cap_raw = nodes.cap[st.busy_idx]
            cap = np.minimum(np.maximum(cap_raw, st.p_lo), st.p_hi)
            frac = (cap - st.p_lo) / st.p_span
            exec_time = st.t_slow + frac * st.t_span
            step = (st.perf / exec_time) * dt
            busy_power = np.minimum(cap_raw, st.p_hi)
        power = nodes.power
        power.fill(IDLE_NODE_POWER)
        power[st.busy_idx] = busy_power
        measured = float(power.sum())
        # Per-node caps move without a version bump, so only the uniform
        # result is keyed; anything else also overwrote the memo's power.
        self._rate_cache = (key, step, measured) if uniform else None
        return step, measured

    def _complete(self, job_indices: np.ndarray) -> None:
        """Retire jobs whose every node reached 100 % progress (§5.6)."""
        for j in np.sort(job_indices).tolist():
            self.jobs.mark_done(j, self.now)
            sim_type = self.job_types[int(self.jobs.type_idx[j])]
            self.scheduler.job_finished(sim_type.name, int(self.jobs.nodes[j]))
            self.nodes.release(j)
        self._sched_dirty = True

    # ----------------------------------------------------- stage 2: arrivals

    def _intake(self) -> None:
        pending = self._pending
        while self._pending_pos < len(pending) and (
            pending[self._pending_pos].submit_time <= self.now
        ):
            req = pending[self._pending_pos]
            self._pending_pos += 1
            type_idx = self.type_index.get(req.type_name)
            if type_idx is None:
                raise KeyError(f"schedule references unknown type {req.type_name!r}")
            job_index = self.jobs.add(type_idx, req.nodes, req.submit_time)
            self._queued_index[req.job_id] = job_index
            self._queued_count += 1
            self._sched_dirty = True
            self.scheduler.queues.submit(req)
        self._next_submit = (
            pending[self._pending_pos].submit_time
            if self._pending_pos < len(pending)
            else float("inf")
        )

    # ---------------------------------------------------- stage 3: schedule

    def _schedule_jobs(self, target: float) -> None:
        if not self._queued_count:
            # Nothing queued: schedule() would mutate nothing and start
            # nothing, so skip its share accounting entirely.  The counter
            # mirrors ``queues.total_pending`` without walking the queues.
            return
        idle_count = self.nodes.num_nodes - self.nodes.busy_count
        if not self._sched_dirty and idle_count == self._sched_idle_memo:
            return
        decision = self.scheduler.schedule(idle_count)
        deferred: list = []
        for queued in decision.to_start:
            if self.config.power_aware_admission and self._would_break_floor(
                queued.nodes, target
            ):
                deferred.append(queued)
                continue
            job_index = self._queued_index.pop(queued.job_id)
            idle = self.nodes.idle_indices()
            chosen = idle[: queued.nodes]
            if chosen.size < queued.nodes:
                raise RuntimeError(
                    f"scheduler started {queued.job_id} without enough idle nodes"
                )
            self.nodes.assign(chosen, job_index)
            self.jobs.mark_started(job_index, self.now)
            self._queued_count -= 1
        # Deferred jobs return to the head of their queues (their node-share
        # accounting was already charged by the scheduler; refund it).
        for queued in deferred:
            queue = self.scheduler.queues[queued.type_name]
            queue.pending.appendleft(queued)
            self.scheduler.job_finished(queued.type_name, queued.nodes)
        # schedule() loops until no queue can start anything, so asked again
        # with the nodes it left idle it starts nothing: the round is a fixed
        # point until a submit or a completion — unless a deferral put jobs
        # back, which a moved target may admit on the very next step.
        self._sched_dirty = bool(deferred)
        self._sched_idle_memo = decision.idle_nodes_after

    def _would_break_floor(self, new_nodes: int, target: float) -> bool:
        """Would starting ``new_nodes`` more make even minimum caps exceed
        the target?  If so, the cluster loses its downward flexibility —
        AQA's scheduler holds the job back instead (§6.4)."""
        busy_after = self.nodes.busy_count + new_nodes
        idle_after = self.nodes.num_nodes - busy_after
        return busy_after * P_NODE_MIN + idle_after * IDLE_NODE_POWER > target

    # --------------------------------------------------------- stage 4: caps

    def _cap_power(self, target: float) -> None:
        nodes = self.nodes
        if not self.config.qos_aware_capping:
            # Without QoS exemptions the caps are a pure function of
            # (target, allocation): a zero-order-hold target repeats for
            # several steps, so the whole waterfill is skippable until the
            # signal steps or the busy set changes — which is what lets
            # ``_advance`` call it, inside a window, only on the steps whose
            # target differs from the memo.  (The QoS path also depends on
            # per-step progress, so it cannot take this exit.)
            if target == self._cap_target_memo and nodes.version == self._cap_version_memo:
                return
            self._cap_target_memo = target
            self._cap_version_memo = nodes.version
        st = self._busy_cache
        if st is None or st.version != nodes.version:
            st = self._busy_state()
        busy_idx = st.busy_idx
        if busy_idx.size == 0:
            return
        idle_count = nodes.num_nodes - busy_idx.size
        available = target - idle_count * IDLE_NODE_POWER
        if self.config.qos_aware_capping:
            exempt = self._at_risk_mask(st)
            if np.any(exempt):
                # At-risk jobs run uncapped; their demand comes off the
                # budget.  The exempt subset varies step to step, so the
                # waterfill re-sorts the remaining demands (and the caps are
                # no longer one shared scalar).
                self._uniform_cap = None
                available -= float(st.p_hi[exempt].sum())
                nodes.cap[busy_idx[exempt]] = P_NODE_MAX
                capped_idx = busy_idx[~exempt]
                if capped_idx.size == 0:
                    return
                per_node = _waterfill_cap(available, st.p_hi[~exempt], P_NODE_MIN, P_NODE_MAX)
                nodes.cap[capped_idx] = np.minimum(per_node, P_NODE_MAX)
                return
        # Uniform cap across active nodes (§4.4.2), waterfilled against each
        # node's precharacterized maximum draw: nodes whose job cannot use
        # the uniform cap release the excess to the others, so the realised
        # power lands on the target whenever it is physically reachable.
        # The sorted demands and prefix sums live in the busy-set cache.
        per_node = _waterfill_scan(
            available,
            st.demand_sum,
            st.demand_order,
            st.demand_prefix,
            st.demand_denom,
            st.demand_lower_eps,
            st.demand_upper_eps,
            P_NODE_MIN,
            P_NODE_MAX,
        )
        c = min(per_node, P_NODE_MAX)
        if c == self._uniform_cap and self._uniform_cap_version == nodes.version:
            return  # caps already hold exactly this value (clamped stretches)
        nodes.cap[busy_idx] = c
        self._uniform_cap = c
        self._uniform_cap_version = nodes.version

    def _at_risk_mask(self, st: _BusyState) -> np.ndarray:
        """Nodes whose job's projected QoS is near its limit (§6.4 feedback)."""
        # Optimistic remaining time: finish the remaining fraction uncapped.
        min_progress = np.empty(self.jobs.count)
        min_progress[st.slow_job] = st.job_min(self.nodes.progress[st.busy_idx])
        remaining = (1.0 - np.minimum(min_progress[st.job_of], 1.0)) * st.t_fast
        projected_sojourn = (self.now - self.jobs.submit_time[st.job_of]) + remaining
        projected_q = projected_sojourn / st.t_fast - 1.0
        limits = self._qos_limits[st.type_of]
        return projected_q >= self.config.qos_risk_fraction * limits

    # ---------------------------------------------------------------- loop

    def _advance(self, until: float) -> None:
        """One window: the steps up to and including the next one on which
        the busy set or the queues can change, in the paper's stage order.

        Between a submit and a completion, intake and scheduling are memoised
        no-ops and every busy node adds the same increment each step until
        the caps move, so those steps need only their trace rows — and, on a
        step where the target moved, stage 4 alone.  Ending a window early is
        always safe — the stages run and find nothing to do — so every bound
        below is the cheapest sufficient one.
        """
        cfg = self.config
        dt = cfg.dt
        nodes = self.nodes
        signal = self.signal
        # Two things act on a step that nothing announces: QoS-aware caps
        # read per-step progress, and a scheduler that deferred a start under
        # power-aware admission asks again on the very next step.
        single = cfg.qos_aware_capping or (self._sched_dirty and self._queued_count > 0)
        next_submit = self._next_submit
        st = self._busy_state()
        step, measured = self._node_rates(st, dt)
        row = nodes.progress[st.busy_idx]
        t = self.now
        steps: list[tuple[float, float, float]] = []
        rows, since = [], 0  # one row per step since the caps last moved
        while True:
            # Stage 1: one ordered ``progress + step`` addition per step, the
            # per-step loop's own IEEE sequence, under the caps in force.
            t += dt
            target = cfg.target(float(signal(t)))
            row = row + step
            steps.append((t, target, measured))
            rows.append(row)
            if single or t >= next_submit or t >= until or len(steps) == _MAX_WINDOW:
                break
            if target != self._cap_target_memo:
                # The target moved and nothing else can act on this step
                # unless a job completes: progress only rises, so this one
                # row answers for every step since the caps last moved.
                if (st.job_min(row) >= 1.0).any():
                    break
                self._cap_power(target)
                step, measured = self._node_rates(st, dt)
                rows, since = [], len(steps)
        # A window whose last row completes nothing completed nothing
        # earlier either; otherwise it ends on the first step that did, which
        # no cap move has been solved past.
        done = st.job_min(row) >= 1.0
        completing = bool(done.any())
        if completing:
            for k, row in enumerate(rows):
                done = st.job_min(row) >= 1.0
                if done.any():
                    break
            del steps[since + k + 1:]
        nodes.progress[st.busy_idx] = row
        self.now, target, measured = steps[-1]
        if completing:
            self._complete(st.slow_job[done])
            # release() rewrote the freed nodes' power to idle in place.
            measured = float(nodes.power.sum())
            steps[-1] = (self.now, target, measured)

        if next_submit <= self.now:
            self._intake()
        self._schedule_jobs(target)
        self._cap_power(target)

        self._trace.extend(steps)
        self.windows += 1
        if self.telemetry is not None and self.telemetry.enabled:
            self._mx_ticks.inc(len(steps))
            self._mx_power.set(measured)
            self._mx_target.set(target)
            self._mx_busy.set(nodes.busy_count)
            self._mx_queue.set(self._queued_count)
            if self._uniform_cap is not None:
                self._mx_cap.set(self._uniform_cap)

    def step(self) -> None:
        """One simulated step of ``dt`` seconds: a window of one."""
        self._advance(self.now + self.config.dt)

    def run(self, duration: float, *, drain: bool = False, max_time: float | None = None) -> SimResult:
        """Simulate ``duration`` seconds; optionally keep going until all
        submitted jobs finish (bounded by ``max_time``)."""
        if duration <= 0:
            raise ValueError(f"duration must be positive, got {duration}")
        limit = max_time if max_time is not None else duration * 4
        while self.now < duration:
            self._advance(duration)
        if drain:
            # A drained cluster is only ever reached by a completion, which
            # ends its window, so testing between windows misses no step.
            while (
                self._pending_pos < len(self._pending)
                or self._queued_count
                or self.nodes.busy_count
            ) and self.now < limit:
                self._advance(limit)
        return SimResult(
            power_trace=np.asarray(self._trace),
            job_table=self.jobs,
            job_types=self.job_types,
            config=self.config,
        )
