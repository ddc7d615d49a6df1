"""The two on/off overheads ``benchmarks/e2e`` has no workload for yet.

* ``telemetry_overhead`` — the fig9 loop with ``repro.telemetry`` fully
  enabled (metrics + event bus + ring sink) against the same loop with it off
  (DESIGN.md §8);
* ``plan_overhead`` / ``plan_solve_overhead`` — the fig9 loop over a bursty
  stepped target at a 4 s manager period, receding-horizon planner on against
  off: wall time, and the seeded-deterministic count of extra budgeter solves
  (DESIGN.md §9).

Each wall-time overhead is the median over interleaved (off, on) pairs of the
per-pair ratio: on a shared box the drift between two runs minutes apart
exceeds the few percent being measured, while a noise burst hits both halves
of its pair.  The numbers are reported (and uploaded by CI), never gated; wall
time proper is measured by ``benchmarks/e2e/bench.py``.

Usage::

    PYTHONPATH=src python benchmarks/perf/overheads.py [--quick] [--seed N] [--output F]
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

#: Pairs per overhead.  Single-run noise on a shared box is several percent —
#: comparable to the overheads themselves — and the median needs a majority
#: of clean pairs to reject it.
PAIRS = 15


def paired_overhead(run_one) -> tuple[dict, object, object]:
    """Interleave ``run_one(False)`` / ``run_one(True)`` ``PAIRS`` times.

    ``run_one(on)`` returns ``(wall_s, extra)``; the result is the summary of
    the per-pair ratios and the last pair's two ``extra`` values (they are
    seeded-deterministic, so any pair's would do).
    """
    ratios, off_walls, on_walls = [], [], []
    off = on = None
    for _ in range(PAIRS):
        off_wall, off = run_one(False)
        on_wall, on = run_one(True)
        ratios.append(on_wall / off_wall - 1.0)
        off_walls.append(off_wall)
        on_walls.append(on_wall)
    q1, median, q3 = statistics.quantiles(ratios, n=4)
    summary = {
        "overhead": median,
        "overhead_q1": q1,
        "overhead_q3": q3,
        "pairs": PAIRS,
        "off_wall_s": min(off_walls),
        "on_wall_s": min(on_walls),
    }
    return summary, off, on


def telemetry_overhead(*, duration: float, seed: int) -> dict:
    """The fig9 loop with full observability on against off."""
    from repro.core.framework import AnorConfig
    from repro.experiments.fig9 import run_fig9

    def run_one(enabled: bool) -> tuple[float, int]:
        cfg = AnorConfig(seed=seed, telemetry_enabled=enabled)
        start = time.perf_counter()
        fig9 = run_fig9(duration=duration, seed=seed, config=cfg)
        return time.perf_counter() - start, len(fig9.result.completed)

    out, _, jobs_completed = paired_overhead(run_one)
    out["jobs_completed"] = jobs_completed
    return out


def plan_overhead(*, duration: float, seed: int) -> dict:
    """Planner cost on the reactive path: plan off against plan on.

    Both arms run the same bursty stepped-target fig9 scenario at a 4 s
    manager period; the plan arm has the receding-horizon planner active
    (schedule forecaster, no shadow rounds).  The planner buys its
    tracking/rewrite wins out of forecasting, not out of extra work:
    ``plan_solve_overhead`` is the noise-free form of that claim — extra
    budgeter solves per run (lazy cap materialization keeps it near zero on
    this kernel: only warm-hit rounds re-solve; DESIGN.md §9 gives the count
    for the all-features workload, where it is not).
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
    times = [hold * k for k in range(int(duration * 2 / hold))]
    stepped = SteppedTarget(times, [regulation.target(t) for t in times])

    def run_one(plan: bool) -> tuple[float, int]:
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
        solves = 0
        allocate = budgeter.allocate

        def counting_allocate(requests, budget):
            nonlocal solves
            solves += 1
            return allocate(requests, budget)

        budgeter.allocate = counting_allocate
        start = time.perf_counter()
        system.run(duration)
        return time.perf_counter() - start, solves

    out, reactive_solves, plan_solves = paired_overhead(run_one)
    out.update(
        reactive_solves=reactive_solves,
        plan_solves=plan_solves,
        solve_overhead=plan_solves / reactive_solves - 1.0,
    )
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="300 s runs, not 900 s")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default="overheads.json")
    args = parser.parse_args(argv)

    duration = 300.0 if args.quick else 900.0
    telemetry = telemetry_overhead(duration=duration, seed=args.seed)
    plan = plan_overhead(duration=duration, seed=args.seed)
    report = {
        "config": "quick" if args.quick else "full",
        "seed": args.seed,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "telemetry_overhead": telemetry["overhead"],
        "plan_overhead": plan["overhead"],
        "plan_solve_overhead": plan["solve_overhead"],
        "kernels": {"telemetry": telemetry, "plan": plan},
    }
    Path(args.output).write_text(json.dumps(report, indent=2) + "\n")
    for name, kernel in report["kernels"].items():
        print(
            f"{name} overhead: {kernel['overhead']:+.1%} wall time "
            f"[q1 {kernel['overhead_q1']:+.1%}, q3 {kernel['overhead_q3']:+.1%}, "
            f"{kernel['pairs']} pairs; off {kernel['off_wall_s']:.3f} s, "
            f"on {kernel['on_wall_s']:.3f} s]"
        )
    print(
        f"plan solve overhead: {plan['solve_overhead']:+.1%} budgeter solves "
        f"({plan['reactive_solves']} -> {plan['plan_solves']}, deterministic)"
    )
    print(f"wrote {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
