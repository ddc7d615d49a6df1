"""One run of one workload in a fresh process; prints one JSON object.

``bench.py`` starts this once per run so that every timing begins from a cold
interpreter and peak memory is the run's own.  ``--spawned-at`` is the
parent's ``time.monotonic()`` just before the spawn (the clock is system-wide),
so ``setup_s`` covers interpreter start, imports and building the inputs.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
sys.path.insert(0, str(HERE))

from calibrate import Calibrator  # noqa: E402  (no imports of its own worth timing)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--untraced-wall", type=float, default=0.0,
        help="wall_s of the same run without the tracer, for trace_overhead",
    )
    args = parser.parse_args()

    if not (SRC / "repro").is_dir():
        print(f"error: {SRC / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    calibrator = Calibrator()
    calibrator.start()
    try:
        return measure(args, calibrator)
    finally:
        calibrator.stop()


def measure(args, calibrator: Calibrator) -> int:
    sys.path.insert(0, str(SRC))
    import layers
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    with workloads.checkpoint_dir() as tmp:
        built = workloads.setup(workload, args.seed, args.quick, tmp)
        setup_raw_s = time.monotonic() - args.spawned_at
        # The timer has been running since before the imports.
        setup_s = calibrator.scale(setup_raw_s - calibrator.spent, 0, min_samples=6)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        tracer = None
        if args.traced:
            sim_duration = built[1] if built is not None else 0.0
            tracer = layers.Tracer(workload.name, sim_duration)
            calibrator.on_spent = tracer.exclude
        out = workloads.run(workload, args.seed, args.quick, built, tracer, calibrator)
        calibrator.on_spent = None
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": out.wall_s,
        "wall_raw_s": out.wall_raw_s,
        "sim_s": out.sim_s,
        "sim_s_per_s": out.sim_s / out.wall_s,
        "peak_rss_mb": peak_rss_mb,
        "attempted": out.attempted,
        "failed": out.failed,
        "sim_digest": out.sim_digest,
        "problems": out.problems,
        **out.fidelity,
    }
    if tracer is not None:
        problems = record["problems"]
        problems.extend(tracer.violations[:5])
        # Host seconds of the traced call that were the program's own.
        own_s = out.wall_raw_s - out.interrupted_s
        self_total = tracer.self_total()
        if abs(self_total - own_s) > 0.01 * own_s:
            problems.append(
                f"layer self times sum to {self_total:.4f} s, the traced call took {own_s:.4f} s"
            )
        per_layer = tracer.metrics(
            traced_wall=out.wall_s,
            untraced_wall=args.untraced_wall or out.wall_s,
            scale=out.wall_s / own_s,
            trace_rows=out.trace_rows,
            faults_fired=out.faults_fired,
            tabsim_steps=out.tabsim_steps,
        )
        if workload.name != "dr16_hardened":
            for layer in workloads.HARDENED_ONLY_LAYERS:
                if per_layer[f"{layer}.calls"]:
                    problems.append(f"layer {layer} was called with its feature off")
        record["per_layer"] = per_layer
        tracer.write_spans(workloads.OUT_DIR / f"trace_{workload.name}.jsonl")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
