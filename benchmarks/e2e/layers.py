"""Layer table and the outside-in tracer.

The layers are this repository's module names.  Each row of ``LAYER_ROWS``
names one public entry point; the tracer resolves it with ``importlib`` at
run time and swaps a timing wrapper onto the class (or module) for the length
of one traced run.  Nothing under ``src/`` knows it is being measured.

A row that no longer resolves (a later refactor renamed the method) is
reported as ``None`` with a warning instead of crashing: ROADMAP items 2 and 3
may not edit this directory, so they must not be able to break it.

Accounting: every wrapped call pushes a frame.  On return its duration is
added to the row's ``busy`` and to the parent frame's child time; the layer's
``self_s`` grows by duration minus child time, so self times partition the
root span exactly.  A layer's ``busy_s`` counts only outermost entries, so an
entry point that calls another of the same layer is not counted twice.
Round-level rows (``kind="span"``) also keep one record per call; per-tick and
per-message rows (``kind="acc"``) only accumulate, because the hardened
workload makes about 10^6 of them.
"""

from __future__ import annotations

import importlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, NamedTuple

import numpy as np


class LayerRow(NamedTuple):
    layer: str
    module: str
    cls: str | None  # None: a module-level function
    method: str
    kind: str  # "span" | "acc"
    hook: str | None = None  # a Tracer._hook_<name> method, run after each call


LAYER_ROWS: tuple[LayerRow, ...] = (
    LayerRow("core.framework", "repro.core.framework", "AnorSystem", "run", "span"),
    LayerRow("experiments", "repro.experiments.fig11", None, "run_fig11", "span"),
    LayerRow("util.calendar", "repro.util.calendar", "EventCalendar", "horizon", "acc"),
    LayerRow("util.calendar", "repro.util.calendar", "EventCalendar", "free_ticks", "acc"),
    LayerRow("hwsim", "repro.hwsim.cluster", "EmulatedCluster", "advance", "acc", "tick_progress"),
    LayerRow("hwsim", "repro.hwsim.cluster", "EmulatedCluster", "advance_stride", "span", "stride_progress"),
    LayerRow("hwsim", "repro.hwsim.cluster", "EmulatedCluster", "start_job", "acc"),
    LayerRow("sched", "repro.sched.fcfs", "FcfsScheduler", "select", "acc", "count_truthy"),
    LayerRow("faults", "repro.faults.injector", "FaultInjector", "tick", "acc"),
    LayerRow("core.cluster_manager", "repro.core.cluster_manager", "ClusterPowerManager", "step", "span", "check_round"),
    LayerRow("budget", "repro.budget.even_slowdown", "EvenSlowdownBudgeter", "allocate", "span"),
    LayerRow("plan", "repro.plan.planner", "RecedingHorizonPlanner", "observe", "span"),
    LayerRow("plan", "repro.plan.planner", "RecedingHorizonPlanner", "rebuild", "span"),
    LayerRow("plan", "repro.plan.planner", "RecedingHorizonPlanner", "dispatch", "span"),
    LayerRow("core.audit", "repro.core.audit", "CapComplianceAuditor", "audit_round", "span"),
    LayerRow("facility", "repro.facility.shed", "ShedController", "observe", "acc"),
    LayerRow("facility", "repro.facility.shed", "ShedController", "request_shed", "acc"),
    LayerRow("facility", "repro.facility.breaker", "PowerBreaker", "observe", "acc"),
    LayerRow("core.job_endpoint", "repro.core.job_endpoint", "JobTierEndpoint", "step", "acc"),
    LayerRow("modeling", "repro.modeling.online", "OnlineModeler", "observe", "acc", "count_truthy"),
    LayerRow("geopm", "repro.geopm.agent", "JobAgentGroup", "step", "acc"),
    LayerRow("core.transport", "repro.core.transport", "TcpLink", "send_down", "acc", "register"),
    LayerRow("core.transport", "repro.core.transport", "TcpLink", "recv_up", "acc", "register"),
    LayerRow("core.transport", "repro.core.transport", "TcpLink", "send_up", "acc", "register"),
    LayerRow("core.transport", "repro.core.transport", "TcpLink", "recv_down", "acc", "register"),
    LayerRow("core.reliable", "repro.core.reliable", "ReliableLink", "send_down", "acc", "register"),
    LayerRow("core.reliable", "repro.core.reliable", "ReliableLink", "recv_up", "acc", "register"),
    LayerRow("core.reliable", "repro.core.reliable", "ReliableLink", "send_up", "acc", "register"),
    LayerRow("core.reliable", "repro.core.reliable", "ReliableLink", "recv_down", "acc", "register"),
    LayerRow("durable", "repro.durable.store", "DurableStore", "save_checkpoint", "span"),
    LayerRow("durable", "repro.durable.journal", "Journal", "append", "acc"),
    LayerRow("telemetry", "repro.telemetry.events", "EventBus", "begin_span", "acc"),
    LayerRow("telemetry", "repro.telemetry.events", "EventBus", "end_span", "acc"),
    LayerRow("telemetry", "repro.telemetry.events", "EventBus", "event", "acc"),
    LayerRow("telemetry", "repro.telemetry.events", "EventBus", "incident", "acc"),
    LayerRow("tabsim", "repro.tabsim.simulator", "TabularClusterSimulator", "run", "span"),
    LayerRow("workloads.generator", "repro.workloads.generator", "PoissonScheduleGenerator", "generate", "acc"),
    LayerRow("analysis", "repro.tabsim.simulator", "SimResult", "qos_percentile_by_type", "acc"),
    LayerRow("analysis", "repro.tabsim.simulator", "SimResult", "tracking_errors", "acc"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(row.layer for row in LAYER_ROWS))

#: (name suffix, unit, better) reported for every layer.
LAYER_TRIO = (("busy_s", "s", "lower"), ("self_s", "s", "lower"), ("calls", "count", "lower"))

#: Per-layer metrics beyond the trio: (name, unit, better).  Where a layer's
#: round, solve, step, record or trial count is exactly its ``calls``, it is
#: not listed a second time.
EXTRA_METRICS: tuple[tuple[str, str, str], ...] = (
    ("core.framework.self_share", "ratio", "lower"),
    ("core.framework.growth_q4_q2", "ratio", "lower"),
    ("hwsim.tick_busy_s", "s", "lower"),
    ("hwsim.tick_calls", "count", "lower"),
    ("hwsim.stride_busy_s", "s", "lower"),
    ("hwsim.strides", "count", "lower"),
    ("hwsim.ticks_strided", "count", "higher"),
    ("hwsim.strided_share", "ratio", "higher"),
    ("hwsim.start_job_busy_s", "s", "lower"),
    ("sched.nonempty_share", "ratio", "higher"),
    ("faults.fired", "count", "lower"),
    ("core.cluster_manager.round_ms_p50", "ms", "lower"),
    ("core.cluster_manager.round_ms_p99", "ms", "lower"),
    ("budget.solve_us_p50", "us", "lower"),
    ("budget.solve_us_p99", "us", "lower"),
    ("plan.rebuilds", "count", "lower"),
    ("plan.dispatches", "count", "lower"),
    ("facility.shed_requests", "count", "lower"),
    ("modeling.refit_share", "ratio", "lower"),
    ("core.transport.sent", "count", "lower"),
    ("core.transport.dropped", "count", "lower"),
    ("core.transport.drop_share", "ratio", "lower"),
    ("core.reliable.retransmits", "count", "lower"),
    ("core.reliable.acked", "count", "higher"),
    ("core.reliable.retransmit_share", "ratio", "lower"),
    ("durable.checkpoint_busy_s", "s", "lower"),
    ("durable.checkpoints", "count", "lower"),
    ("durable.checkpoint_ms_p50", "ms", "lower"),
    ("durable.journal_busy_s", "s", "lower"),
    ("durable.journal_appends", "count", "lower"),
    ("tabsim.steps", "count", "lower"),
    ("tabsim.us_per_step", "us", "lower"),
    ("trace_overhead", "ratio", "lower"),
)


def per_layer_metric_defs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in print order."""
    defs = [
        (f"{layer}.{suffix}", unit, better)
        for layer in LAYERS
        for suffix, unit, better in LAYER_TRIO
    ]
    return defs + list(EXTRA_METRICS)


@dataclass
class _Stats:
    """Accumulator for one row, or for one layer."""

    calls: int = 0
    busy: float = 0.0
    self_s: float = 0.0
    depth: int = 0  # layers only: how many of its entry points are on the stack
    truthy: int = 0  # rows with the count_truthy hook


class Tracer:
    """Times the rows of ``LAYER_ROWS`` from outside for one run."""

    #: The repo's own slack on the planned-draw ceiling (see BudgetRound).
    ROUND_SLACK_W = 0.1

    def __init__(self, workload: str, sim_duration: float) -> None:
        self.workload = workload
        self.rows: dict[LayerRow, _Stats | None] = {}
        self.layers: dict[str, _Stats] = {layer: _Stats() for layer in LAYERS}
        # One record per span-kind call:
        # [name, start, end, parent index, seconds excluded].
        self.spans: list[list[Any]] = []
        self.instances: dict[str, dict[int, Any]] = {}
        self.violations: list[str] = []
        self.ticks_strided = 0
        # Host time at which simulated time first reached each quarter of the
        # run; growth_q4_q2 compares the cost of the last and second quarters.
        self._marks = [sim_duration * q / 4 for q in (1, 2, 3, 4)]
        self.mark_times: list[float] = []
        # One frame per wrapped call on the stack: [host time covered by
        # wrapped callees, host time to leave out (see exclude)].
        self._frames: list[list[float]] = []
        self._open_spans: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------ install

    def install(self) -> None:
        nas = importlib.import_module("repro.workloads.nas")
        self._cap_range = (nas.P_NODE_MIN, nas.P_NODE_MAX)
        for row in LAYER_ROWS:
            try:
                owner = importlib.import_module(row.module)
                if row.cls is not None:
                    owner = getattr(owner, row.cls)
                # The class's own attribute, so an inherited method is not
                # wrapped twice through two subclasses.
                original = vars(owner)[row.method]
                if not callable(original):
                    raise TypeError(f"{row.method} is not a plain function")
            except (ImportError, AttributeError, KeyError, TypeError) as exc:
                print(
                    f"warning: layer row {row.module}.{row.cls}.{row.method} "
                    f"does not resolve ({exc!r}); reported as null",
                    file=sys.stderr,
                )
                self.rows[row] = None
                continue
            stats = self.rows[row] = _Stats()
            setattr(owner, row.method, self._wrap(row, original, stats))
            self._patched.append((owner, row.method, original))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, row: LayerRow, fn: Callable, rstats: _Stats) -> Callable:
        lstats = self.layers[row.layer]
        frames = self._frames
        spans = self.spans
        open_spans = self._open_spans
        hook = getattr(self, "_hook_" + row.hook) if row.hook else None
        is_span = row.kind == "span"
        name = f"{row.layer}:{row.method}"

        def wrapper(*args, **kwargs):
            nonlocal hook
            frame = [0.0, 0.0]
            frames.append(frame)
            nested = lstats.depth
            lstats.depth = nested + 1
            if is_span:
                span = [name, 0.0, 0.0, open_spans[-1] if open_spans else None, 0.0]
                open_spans.append(len(spans))
                spans.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                frames.pop()
                lstats.depth = nested
                dt = t1 - t0
                busy = dt - frame[1]
                rstats.calls += 1
                rstats.busy += busy
                lstats.self_s += dt - frame[0]
                if not nested:
                    lstats.calls += 1
                    lstats.busy += busy
                if frames:
                    frames[-1][0] += dt
                    frames[-1][1] += frame[1]
                if is_span:
                    open_spans.pop()
                    span[1] = t0
                    span[2] = t1
                    span[4] = frame[1]
            if hook is not None:
                try:
                    hook(rstats, args, result, t1)
                except Exception as exc:  # a refactor changed what the hook reads
                    print(f"warning: hook {row.hook} on {name} dropped ({exc!r})", file=sys.stderr)
                    hook = None
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def exclude(self, seconds: float) -> None:
        """Leave an interruption (the calibration kernel) out of every layer.

        It counts as covered time in the innermost open frame, so no layer's
        ``self_s`` holds it, and is subtracted from the ``busy_s`` of every
        frame it happened inside.
        """
        if self._frames:
            self._frames[-1][0] += seconds
            self._frames[-1][1] += seconds

    # -------------------------------------------------------------- hooks

    def _reach(self, sim_now: float, host_now: float) -> None:
        while len(self.mark_times) < 4 and sim_now >= self._marks[len(self.mark_times)] - 1e-9:
            self.mark_times.append(host_now)

    def _hook_tick_progress(self, rstats, args, result, t1) -> None:
        self._reach(args[0].clock.now, t1)

    def _hook_stride_progress(self, rstats, args, result, t1) -> None:
        # advance_stride(times, dt) -> (ticks, totals); the framework moves
        # the clock to times[ticks - 1] only after it returns.
        ticks = int(result[0])
        self.ticks_strided += ticks
        self._reach(float(args[1][ticks - 1]), t1)

    def _hook_count_truthy(self, rstats, args, result, t1) -> None:
        if result:
            rstats.truthy += 1

    def _hook_register(self, rstats, args, result, t1) -> None:
        obj = args[0]
        self.instances.setdefault(type(obj).__name__, {})[id(obj)] = obj

    def _hook_check_round(self, rstats, args, result, t1) -> None:
        """Σ caps ≤ budget and caps within the node's range, every round."""
        manager = args[0]
        rnd = manager.last_round
        if rnd is not None:
            planned = rnd.idle_power + rnd.reserved + rnd.allocated
            ceiling = max(rnd.target + rnd.correction, rnd.floor) + self.ROUND_SLACK_W
            if planned > ceiling:
                self.violations.append(
                    f"t={rnd.time}: planned draw {planned:.2f} W over ceiling {ceiling:.2f} W"
                )
        p_min, p_max = self._cap_range
        for job_id, cap in result.items():
            if not p_min <= cap <= p_max:
                self.violations.append(f"cap {cap} W for {job_id} outside node range")

    # ------------------------------------------------------------ results

    def _row(self, layer: str, method: str, cls: str | None = None) -> _Stats | None:
        for row, stats in self.rows.items():
            if row.layer == layer and row.method == method and cls in (None, row.cls):
                return stats
        raise KeyError((layer, method))

    def _span_ms(self, name: str) -> np.ndarray:
        return np.array([1e3 * (s[2] - s[1] - s[4]) for s in self.spans if s[0] == name])

    def metrics(
        self,
        *,
        traced_wall: float,
        untraced_wall: float,
        scale: float,
        trace_rows: int,
        faults_fired: int,
        tabsim_steps: int,
    ) -> dict[str, float | None]:
        """Every per-layer metric by name; ``None`` where a row is unresolved.

        ``traced_wall`` and ``untraced_wall`` are at the reference speed (see
        calibrate.py); ``scale`` brings this run's host seconds to it.
        """
        out: dict[str, float | None] = {}
        for layer in LAYERS:
            stats = self.layers[layer]
            resolved = any(
                s is not None for row, s in self.rows.items() if row.layer == layer
            )
            out[f"{layer}.busy_s"] = stats.busy if resolved else None
            out[f"{layer}.self_s"] = stats.self_s if resolved else None
            out[f"{layer}.calls"] = stats.calls if resolved else None

        def pct(values: np.ndarray, q: float, scale: float = 1.0) -> float:
            return float(np.percentile(values, q)) * scale if values.size else 0.0

        def share(part: float | None, whole: float | None) -> float | None:
            if part is None or whole is None:
                return None
            return part / whole if whole else 0.0

        def attr(stats: _Stats | None, field: str) -> float | None:
            return None if stats is None else getattr(stats, field)

        out["core.framework.self_share"] = share(
            out["core.framework.self_s"], self.self_total()
        )
        marks = self.mark_times
        out["core.framework.growth_q4_q2"] = (
            (marks[3] - marks[2]) / (marks[1] - marks[0]) if len(marks) == 4 else 0.0
        )
        tick = self._row("hwsim", "advance")
        stride = self._row("hwsim", "advance_stride")
        out["hwsim.tick_busy_s"] = attr(tick, "busy")
        out["hwsim.tick_calls"] = attr(tick, "calls")
        out["hwsim.stride_busy_s"] = attr(stride, "busy")
        out["hwsim.strides"] = attr(stride, "calls")
        out["hwsim.ticks_strided"] = None if stride is None else self.ticks_strided
        out["hwsim.strided_share"] = share(out["hwsim.ticks_strided"], trace_rows)
        out["hwsim.start_job_busy_s"] = attr(self._row("hwsim", "start_job"), "busy")
        select = self._row("sched", "select")
        out["sched.nonempty_share"] = share(attr(select, "truthy"), attr(select, "calls"))
        out["faults.fired"] = faults_fired
        rounds = self._span_ms("core.cluster_manager:step")
        out["core.cluster_manager.round_ms_p50"] = pct(rounds, 50)
        out["core.cluster_manager.round_ms_p99"] = pct(rounds, 99)
        solves = self._span_ms("budget:allocate")
        out["budget.solve_us_p50"] = pct(solves, 50, 1e3)
        out["budget.solve_us_p99"] = pct(solves, 99, 1e3)
        out["plan.rebuilds"] = attr(self._row("plan", "rebuild"), "calls")
        out["plan.dispatches"] = attr(self._row("plan", "dispatch"), "calls")
        out["facility.shed_requests"] = attr(self._row("facility", "request_shed"), "calls")
        observe = self._row("modeling", "observe")
        out["modeling.refit_share"] = share(attr(observe, "truthy"), attr(observe, "calls"))
        # Counts come from the channels' own public counters, summed over
        # every link the wrappers saw.
        links = self.instances.get("TcpLink", {}).values()
        sent = sum(l.down.sent + l.up.sent for l in links)
        dropped = sum(l.down.dropped + l.up.dropped for l in links)
        out["core.transport.sent"] = sent
        out["core.transport.dropped"] = dropped
        out["core.transport.drop_share"] = share(dropped, sent)
        reliable = self.instances.get("ReliableLink", {}).values()
        retransmits = sum(r.retransmits for r in reliable)
        acked = sum(r.acked for r in reliable)
        out["core.reliable.retransmits"] = retransmits
        out["core.reliable.acked"] = acked
        out["core.reliable.retransmit_share"] = share(retransmits, retransmits + acked)
        checkpoint = self._row("durable", "save_checkpoint")
        journal = self._row("durable", "append")
        out["durable.checkpoint_busy_s"] = attr(checkpoint, "busy")
        out["durable.checkpoints"] = attr(checkpoint, "calls")
        out["durable.checkpoint_ms_p50"] = pct(self._span_ms("durable:save_checkpoint"), 50)
        out["durable.journal_busy_s"] = attr(journal, "busy")
        out["durable.journal_appends"] = attr(journal, "calls")
        out["tabsim.steps"] = tabsim_steps
        out["tabsim.us_per_step"] = (
            1e6 * self.layers["tabsim"].busy / tabsim_steps if tabsim_steps else 0.0
        )
        for name, unit, _ in per_layer_metric_defs():
            if unit in ("s", "ms", "us") and out[name] is not None:
                out[name] *= scale
        out["trace_overhead"] = traced_wall / untraced_wall - 1.0
        return out

    def self_total(self) -> float:
        return sum(stats.self_s for stats in self.layers.values())

    def write_spans(self, path: Path) -> None:
        """One JSON object per span: id, name, start, end, parent, workload.

        ``excluded`` is the part of [start, end] the calibration kernel took.
        """
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for index, (name, start, end, parent, excluded) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "excluded": excluded,
                            "workload": self.workload,
                        }
                    )
                    + "\n"
                )
