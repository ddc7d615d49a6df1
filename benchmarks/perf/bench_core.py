"""Perf-regression harness for the simulation core.

Times the core kernels with ``time.perf_counter``:

* ``fig9`` — the reduced fig9 end-to-end loop (emulated cluster + full
  two-tier control plane, default 1 s control periods);
* ``fig9_event`` — the same scenario with a multi-rate control plane
  (agent/endpoint 30 s, manager 60 s) under event-calendar stepping — the
  headline kernel for the event-driven core;
* ``fig9_faults`` — the multi-rate event run under the standard fault
  load (fault firings truncate strides);
* ``hwsim_tick_256`` — the scale point: 256 nodes at the multi-rate periods,
  where a job arrives about every simulated second, strides never fire and
  the per-tick fleet pass of ``EmulatedCluster.advance`` carries the run;
* ``fig9_telemetry`` — the fig9 loop with ``repro.telemetry`` fully enabled
  (metrics + event bus + ring sink), documenting the observability overhead;
* ``fig9_plan`` — the fig9 loop over a bursty stepped target at a 4 s
  manager period, plan off then plan on in the same sample; the derived
  ``plan_overhead`` (wall time) and ``plan_solve_overhead`` (deterministic
  extra budgeter solves) pin the receding-horizon planner's cost on the
  reactive path;
* ``tabsim`` — the 1000-node tabular simulator loop at 1 s steps;
* ``budgeter`` — the even-slowdown and even-power solvers over repeated
  budget rounds (the bisection hot path of every manager period).

Output is ``BENCH_core.json``: per-kernel wall time, ticks/sec (or
rounds/sec), and the speedup vs. the recorded **seed baseline**
(``baseline_seed.json``, measured on the pre-vectorization implementation —
never regenerate it on optimized code).  A second, regenerable baseline
(``baseline.json``) gates CI: ``--check`` fails the run when ticks/sec
regresses more than ``--max-regress`` against it.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_core.py                  # full
    PYTHONPATH=src python benchmarks/perf/bench_core.py --quick          # CI smoke
    PYTHONPATH=src python benchmarks/perf/bench_core.py --quick --check  # gate
    PYTHONPATH=src python benchmarks/perf/bench_core.py --update-baseline
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).parent
SEED_BASELINE = HERE / "baseline_seed.json"
CURRENT_BASELINE = HERE / "baseline.json"
DEFAULT_OUTPUT = Path("BENCH_core.json")


# ----------------------------------------------------------------- kernels


def bench_fig9(*, duration: float, seed: int) -> dict:
    """End-to-end fig9 loop: one simulated second per tick."""
    from repro.experiments.fig9 import run_fig9

    start = time.perf_counter()
    fig9 = run_fig9(duration=duration, seed=seed)
    wall = time.perf_counter() - start
    ticks = fig9.result.power_trace.shape[0]
    return {
        "wall_s": wall,
        "ticks": int(ticks),
        "ticks_per_sec": ticks / wall,
        "jobs_completed": len(fig9.result.completed),
    }


def bench_fig9_telemetry(*, duration: float, seed: int) -> dict:
    """The fig9 loop with full observability on — pins the enabled overhead.

    Each sample times five interleaved (off, on) pairs and reports the median
    pair ratio as ``telemetry_overhead``: the ``fig9`` kernel runs minutes
    earlier in the suite, and on a shared box the drift between the two
    exceeds the few percent being measured (same reasoning as ``fig9_plan``).
    """
    from repro.core.framework import AnorConfig
    from repro.experiments.fig9 import run_fig9

    def run_one(enabled: bool) -> tuple[float, object]:
        cfg = AnorConfig(seed=seed, telemetry_enabled=enabled)
        start = time.perf_counter()
        fig9 = run_fig9(duration=duration, seed=seed, config=cfg)
        return time.perf_counter() - start, fig9

    plain_wall = wall = float("inf")
    ratios = []
    for _ in range(5):
        off_wall, _unused = run_one(False)
        on_wall, fig9 = run_one(True)
        ratios.append(on_wall / off_wall)
        plain_wall = min(plain_wall, off_wall)
        wall = min(wall, on_wall)
    ticks = fig9.result.power_trace.shape[0]
    return {
        "wall_s": wall,
        "plain_wall_s": plain_wall,
        "telemetry_overhead": sorted(ratios)[len(ratios) // 2] - 1.0,
        "ticks": int(ticks),
        "ticks_per_sec": ticks / wall,
        "jobs_completed": len(fig9.result.completed),
    }


def bench_fig9_event(*, duration: float, seed: int) -> dict:
    """Multi-rate control plane under event-calendar stepping.

    Agent/endpoint sample every 30 s and the manager re-budgets every 60 s
    — the regime the event calendar is built for: long control-free runs
    of ticks collapse into analytic strides.  Ticks/sec here against the
    seed baseline's ``fig9`` is the headline speedup of this optimisation
    (the workload is the same fig9 scenario; only the control-plane rates
    and the stepping mode differ).
    """
    from repro.core.framework import AnorConfig
    from repro.experiments.fig9 import run_fig9

    cfg = AnorConfig(
        seed=seed,
        agent_period=30.0,
        endpoint_period=30.0,
        manager_period=60.0,
    )
    start = time.perf_counter()
    fig9 = run_fig9(duration=duration, seed=seed, config=cfg)
    wall = time.perf_counter() - start
    ticks = fig9.result.power_trace.shape[0]
    return {
        "wall_s": wall,
        "ticks": int(ticks),
        "ticks_per_sec": ticks / wall,
        "jobs_completed": len(fig9.result.completed),
    }


def bench_fig9_faults(*, duration: float, seed: int) -> dict:
    """The multi-rate event run under the standard fault load.

    Fault firings are calendar events that truncate strides; this kernel
    pins the cost of event stepping when the calendar is busy (crashes,
    link loss, meter outages) rather than quiet.
    """
    from repro.core.framework import AnorConfig
    from repro.experiments.fig9 import build_demand_response_system
    from repro.faults.schedule import FaultSchedule

    cfg = AnorConfig(
        seed=seed,
        agent_period=30.0,
        endpoint_period=30.0,
        manager_period=60.0,
    )
    schedule = FaultSchedule.standard_load(duration)
    system = build_demand_response_system(
        duration=duration, seed=seed, config=cfg, fault_schedule=schedule
    )
    start = time.perf_counter()
    result = system.run(duration)
    wall = time.perf_counter() - start
    ticks = result.power_trace.shape[0]
    return {
        "wall_s": wall,
        "ticks": int(ticks),
        "ticks_per_sec": ticks / wall,
        "jobs_completed": len(result.completed),
    }


def bench_hwsim_tick_256(*, duration: float, seed: int) -> dict:
    """Per-tick physics at scale: 256 nodes, 30/30/60 s control periods.

    ~150 concurrent 1–2 node jobs with an arrival about every simulated
    second leave no control-free window to stride over, so nearly every
    tick is one ``EmulatedCluster.advance`` — the same deployment as the
    ``dr256_multirate`` workload of ``benchmarks/e2e``, short enough for CI.
    """
    from repro.core.framework import AnorConfig
    from repro.experiments.fig9 import (
        DEFAULT_AVERAGE_POWER,
        DEFAULT_RESERVE,
        build_demand_response_system,
    )

    nodes = 256
    cfg = AnorConfig(
        num_nodes=nodes,
        seed=seed,
        agent_period=30.0,
        endpoint_period=30.0,
        manager_period=60.0,
    )
    system = build_demand_response_system(
        duration=duration,
        seed=seed,
        config=cfg,
        num_nodes=nodes,
        average_power=DEFAULT_AVERAGE_POWER * nodes / 16,
        reserve=DEFAULT_RESERVE * nodes / 16,
    )
    start = time.perf_counter()
    result = system.run(duration)
    wall = time.perf_counter() - start
    ticks = result.power_trace.shape[0]
    return {
        "wall_s": wall,
        "ticks": int(ticks),
        "ticks_per_sec": ticks / wall,
        "jobs_completed": len(result.completed),
    }


def bench_fig9_plan(*, duration: float, seed: int) -> dict:
    """Planner overhead on the reactive path (DESIGN.md §9).

    Runs the same bursty stepped-target fig9 scenario twice — plan off
    (pure reactive) and plan on (receding-horizon planner active, schedule
    forecaster) — at a 4 s manager period.  Both runs come from the same
    sample so ``plan_overhead`` compares a matched pair: the planner buys
    its tracking/rewrite wins out of forecasting, not out of extra work.
    ``plan_solve_overhead`` is the noise-free version of the same claim —
    extra budgeter solves per run, a seeded-deterministic count (lazy cap
    materialization keeps it near zero: only warm-hit rounds re-solve).
    """
    from repro.aqa.regulation import BoundedRandomWalkSignal
    from repro.core.framework import AnorConfig
    from repro.core.targets import RegulationTarget, SteppedTarget
    from repro.experiments.fig9 import (
        DEFAULT_AVERAGE_POWER,
        DEFAULT_RESERVE,
        build_demand_response_system,
    )

    hold = 4.0
    signal = BoundedRandomWalkSignal(duration * 2, step=hold, seed=seed + 11)
    regulation = RegulationTarget(
        DEFAULT_AVERAGE_POWER, DEFAULT_RESERVE, signal, update_period=hold
    )
    n_steps = int(duration * 2 / hold)
    times = [hold * k for k in range(n_steps)]
    stepped = SteppedTarget(times, [regulation.target(t) for t in times])

    def run_one(plan: bool) -> tuple[float, object, int]:
        cfg = AnorConfig(
            seed=seed,
            manager_period=hold,
            plan_enabled=plan,
            plan_shadow_rounds=0,
        )
        system = build_demand_response_system(
            duration=duration, seed=seed, target_source=stepped, config=cfg
        )
        budgeter = system.manager.budgeter
        solves = [0]
        orig_allocate = budgeter.allocate

        def counting_allocate(requests, budget):
            solves[0] += 1
            return orig_allocate(requests, budget)

        budgeter.allocate = counting_allocate
        start = time.perf_counter()
        result = system.run(duration)
        return time.perf_counter() - start, result, solves[0]

    # Interleave the arms; report per-arm minima for wall time but the
    # *median of per-pair ratios* for the overhead: a noise burst hits both
    # halves of its pair, so the ratio is far more stable than min-vs-min.
    # Nine pairs because single-run noise on a shared box is several percent
    # — comparable to the overhead being measured — and the median needs a
    # majority of clean pairs to reject it.
    reactive_wall = wall = float("inf")
    result = None
    ratios = []
    reactive_solves = plan_solves = 0
    for _ in range(9):
        r_wall, _unused, reactive_solves = run_one(False)
        p_wall, p_result, plan_solves = run_one(True)
        ratios.append(p_wall / r_wall)
        reactive_wall = min(reactive_wall, r_wall)
        if p_wall < wall:
            wall, result = p_wall, p_result
    ratios.sort()
    overhead = ratios[len(ratios) // 2] - 1.0
    # Solve counts are seeded-deterministic, so the ratio is noise-free: it
    # is the planner's *work* overhead (extra budgeter solves per run),
    # immune to the wall-clock jitter that dominates `plan_overhead` on a
    # shared box.
    solve_overhead = plan_solves / reactive_solves - 1.0 if reactive_solves else 0.0
    ticks = result.power_trace.shape[0]
    return {
        "wall_s": wall,
        "reactive_wall_s": reactive_wall,
        "plan_overhead": overhead,
        "plan_solve_overhead": solve_overhead,
        "reactive_solves": int(reactive_solves),
        "plan_solves": int(plan_solves),
        "ticks": int(ticks),
        "ticks_per_sec": ticks / wall,
        "jobs_completed": len(result.completed),
    }


def bench_tabsim(*, num_nodes: int, duration: float, seed: int) -> dict:
    """The 1000-node-scale tabular simulator loop (paper §5.6)."""
    from repro.aqa.regulation import BoundedRandomWalkSignal
    from repro.tabsim.simulator import SimConfig, TabularClusterSimulator
    from repro.tabsim.tables import SimJobType
    from repro.workloads.generator import PoissonScheduleGenerator
    from repro.workloads.nas import long_running_mix

    base_types = long_running_mix()
    sim_types = [SimJobType.from_job_type(jt, node_scale=25) for jt in base_types]
    scaled = [jt.scaled_nodes(25) for jt in base_types]
    generator = PoissonScheduleGenerator(
        scaled, utilization=0.75, total_nodes=num_nodes, seed=seed
    )
    schedule = generator.generate(duration)
    signal = BoundedRandomWalkSignal(duration * 4, step=4.0, seed=seed + 1)
    config = SimConfig(num_nodes=num_nodes, seed=seed + 2)
    sim = TabularClusterSimulator(sim_types, schedule, signal, config)
    start = time.perf_counter()
    result = sim.run(duration)
    wall = time.perf_counter() - start
    ticks = result.power_trace.shape[0]
    return {
        "wall_s": wall,
        "ticks": int(ticks),
        "ticks_per_sec": ticks / wall,
        "jobs_completed": result.completed_jobs,
    }


def bench_budgeter(*, n_jobs: int, rounds: int, seed: int) -> dict:
    """Repeated budget rounds over a fixed job mix (the bisection hot path)."""
    import numpy as np

    from repro.budget.base import JobBudgetRequest
    from repro.budget.even_power import EvenPowerBudgeter
    from repro.budget.even_slowdown import EvenSlowdownBudgeter
    from repro.workloads.nas import NAS_TYPES, P_NODE_MAX, P_NODE_MIN

    types = list(NAS_TYPES.values())
    jobs = [
        JobBudgetRequest(
            job_id=f"j{i:03d}",
            nodes=types[i % len(types)].nodes,
            model=types[i % len(types)].truth,
            p_min=P_NODE_MIN,
            p_max=P_NODE_MAX,
        )
        for i in range(n_jobs)
    ]
    total_nodes = sum(j.nodes for j in jobs)
    budgets = np.linspace(
        total_nodes * P_NODE_MIN * 1.02, total_nodes * P_NODE_MAX * 0.98, rounds
    )
    solvers = [EvenSlowdownBudgeter(), EvenPowerBudgeter()]
    start = time.perf_counter()
    for budget in budgets:
        for solver in solvers:
            solver.allocate(jobs, float(budget))
    wall = time.perf_counter() - start
    n_rounds = rounds * len(solvers)
    return {
        "wall_s": wall,
        "rounds": n_rounds,
        "ticks_per_sec": n_rounds / wall,  # rounds/sec, same key for the gate
    }


# ------------------------------------------------------------- harness


def _best_of(repeats: int, fn, **kwargs) -> dict:
    """Run ``fn`` ``repeats`` times, keep the fastest (min-wall) sample.

    Wall-clock minima are the standard noise filter for micro/meso
    benchmarks: interference only ever adds time, so the minimum is the
    closest observable to the true cost.
    """
    samples = [fn(**kwargs) for _ in range(max(1, repeats))]
    best = min(samples, key=lambda r: r["wall_s"])
    for key in ("plan_overhead", "telemetry_overhead"):
        if key in best:
            # Overhead is a ratio, not a time: the min-wall sample's value is
            # no less noisy than any other's, so take the median across repeats.
            ratios = sorted(r[key] for r in samples)
            best[key] = ratios[len(ratios) // 2]
    best["repeats"] = max(1, repeats)
    return best


def run_suite(quick: bool, seed: int, repeats: int = 3) -> dict:
    kernels = {}
    kernels["fig9"] = _best_of(
        repeats, bench_fig9, duration=300.0 if quick else 900.0, seed=seed
    )
    kernels["fig9_event"] = _best_of(
        repeats, bench_fig9_event, duration=300.0 if quick else 900.0, seed=seed
    )
    kernels["fig9_faults"] = _best_of(
        repeats, bench_fig9_faults, duration=300.0 if quick else 900.0, seed=seed
    )
    kernels["hwsim_tick_256"] = _best_of(repeats, bench_hwsim_tick_256, duration=300.0, seed=seed)
    kernels["fig9_telemetry"] = _best_of(
        repeats, bench_fig9_telemetry, duration=300.0 if quick else 900.0, seed=seed
    )
    kernels["fig9_plan"] = _best_of(
        repeats, bench_fig9_plan, duration=300.0 if quick else 900.0, seed=seed
    )
    kernels["tabsim"] = _best_of(
        repeats,
        bench_tabsim,
        num_nodes=1000,
        duration=600.0 if quick else 1800.0,
        seed=seed + 3,
    )
    kernels["budgeter"] = _best_of(
        repeats, bench_budgeter, n_jobs=24, rounds=50 if quick else 200, seed=seed
    )
    return kernels


def compare(kernels: dict, baseline: dict | None, config: str) -> dict:
    """Per-kernel speedup of this run vs. a config-matched baseline.

    Baseline files store one entry per config ("quick"/"full") because
    ticks/sec is workload-dependent — comparing across configs would be
    meaningless.
    """
    if not baseline:
        return {}
    base_kernels = baseline.get(config, {}).get("kernels", {})
    out = {}
    for name, result in kernels.items():
        base = base_kernels.get(name)
        if base and base.get("ticks_per_sec"):
            out[name] = result["ticks_per_sec"] / base["ticks_per_sec"]
    return out


def load_json(path: Path) -> dict | None:
    if not path.exists():
        return None
    return json.loads(path.read_text())


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="reduced CI smoke config")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="samples per kernel; the fastest (min wall) is reported",
    )
    parser.add_argument("--output", default=str(DEFAULT_OUTPUT))
    parser.add_argument(
        "--check",
        action="store_true",
        help="fail (exit 1) when ticks/sec regresses more than --max-regress "
        "against the committed baseline.json",
    )
    parser.add_argument("--max-regress", type=float, default=0.30)
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite baseline.json from this run (quick mode numbers)",
    )
    args = parser.parse_args(argv)

    config = "quick" if args.quick else "full"
    kernels = run_suite(args.quick, args.seed, args.repeats)
    seed_baseline = load_json(SEED_BASELINE)
    report = {
        "config": config,
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "kernels": kernels,
        "speedup_vs_seed": compare(kernels, seed_baseline, config),
    }
    if "fig9_telemetry" in kernels:
        report["telemetry_overhead"] = kernels["fig9_telemetry"]["telemetry_overhead"]
    if "fig9_plan" in kernels:
        report["plan_overhead"] = kernels["fig9_plan"]["plan_overhead"]
        report["plan_solve_overhead"] = kernels["fig9_plan"]["plan_solve_overhead"]
    # Headline for the event-calendar core: the multi-rate event kernel vs.
    # the *seed* implementation's fixed-dt fig9 (same scenario; only the
    # control-plane rates and stepping mode differ).
    seed_fig9 = (
        (seed_baseline or {}).get(config, {}).get("kernels", {}).get("fig9", {})
    )
    if "fig9_event" in kernels and seed_fig9.get("ticks_per_sec"):
        report["fig9_event_vs_seed_fig9"] = (
            kernels["fig9_event"]["ticks_per_sec"] / seed_fig9["ticks_per_sec"]
        )
    out_path = Path(args.output)
    out_path.write_text(json.dumps(report, indent=2) + "\n")
    for name, result in kernels.items():
        speed = report["speedup_vs_seed"].get(name)
        extra = f"  ({speed:.2f}x vs seed)" if speed else ""
        print(
            f"{name:14s} {result['wall_s']:8.3f}s  "
            f"{result['ticks_per_sec']:10.1f} ticks/s{extra}"
        )
    if "telemetry_overhead" in report:
        print(f"telemetry overhead: {report['telemetry_overhead']:+.1%} wall time")
    if "plan_overhead" in report:
        print(f"plan overhead: {report['plan_overhead']:+.1%} wall time vs reactive")
    if "plan_solve_overhead" in report:
        print(
            "plan solve overhead: "
            f"{report['plan_solve_overhead']:+.1%} budgeter solves vs reactive "
            "(deterministic)"
        )
    if "fig9_event_vs_seed_fig9" in report:
        print(
            "fig9_event vs seed fig9: "
            f"{report['fig9_event_vs_seed_fig9']:.1f}x ticks/sec"
        )
    print(f"wrote {out_path}")

    if args.update_baseline:
        baseline = load_json(CURRENT_BASELINE) or {}
        baseline[config] = {"kernels": kernels}
        CURRENT_BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
        print(f"updated {CURRENT_BASELINE} [{config}]")
    if args.check:
        baseline = load_json(CURRENT_BASELINE)
        if baseline is None or config not in baseline:
            print(f"no committed baseline.json entry for {config!r}; "
                  "run --update-baseline first")
            return 1
        failures = []
        for name, speedup in compare(kernels, baseline, config).items():
            if speedup < 1.0 - args.max_regress:
                failures.append(f"{name}: {speedup:.2f}x of baseline ticks/sec")
        if failures:
            print("PERF REGRESSION: " + "; ".join(failures))
            return 1
        print(f"perf gate ok (>{1.0 - args.max_regress:.0%} of baseline ticks/sec)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
