"""End-to-end benchmark: five workloads, timed from outside, attributed to layers.

    python benchmarks/e2e/bench.py [--seed N] [--repeats K] [--quick] [--workload W ...]
    python benchmarks/e2e/bench.py --workload W --seed N --seconds S --trace 0|1
    python benchmarks/e2e/bench.py --compare A.json B.json
    python benchmarks/e2e/bench.py --manifest

The first form runs every workload K times, one fresh child process at a
time, workloads interleaved round-robin, then one traced run per workload;
it prints every metric by name with its unit, checks the simulated outputs and
writes ``benchmarks/e2e/out/results.json``.  The second form is the contract
of ``BENCHMARK.json``: one workload, the number of runs sized from
``--seconds``, and one JSON object on the last line of stdout.  See README.md.

Run ``i`` of a workload uses the inputs of seed ``seed * 1000 + 37 * i``.
On 16 nodes the cost of a run depends on the realised queue (±15 % in
function calls from one seed to the next), so a result is the median over a
small panel of seeds rather than of one seed repeated; determinism is checked
by the traced run, which repeats run 0 and must reproduce its digest.
Timings are scaled to a reference machine speed, see calibrate.py.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from layers import per_layer_metric_defs  # noqa: E402
from workloads import OUT_DIR, WORKLOADS  # noqa: E402

RUN_SECONDS = 12
MIN_RUNS = 2
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

#: name, unit, better, bound, gated.  ``gated`` metrics are the end_to_end list
#: of BENCHMARK.json: the ones that hold steady from seed to seed.  Timings
#: are scaled to a reference machine speed (calibrate.py); over ten seeds their
#: quartiles then lie 4-12 % apart on the reference box (11-22 % unscaled), so
#: the bound is three times that.  The rest are exact for a seed but differ by
#: tens of percent between seeds, so the driver sees them as unbounded
#: per-layer metrics and ``--compare`` holds them to these bounds.
E2E_METRICS = (
    ("setup_s", "s", "lower", 0.25, True),
    ("wall_s", "s", "lower", 0.25, True),
    ("sim_s_per_s", "sim-s/s", "higher", 0.25, True),
    ("peak_rss_mb", "MiB", "lower", 0.10, True),
    ("jobs_completed", "count", "higher", 0.02, False),
    ("track_err_p90", "ratio", "lower", 0.05, False),
    ("qos_p90", "ratio", "lower", 0.05, False),
    ("jobs_lost_share", "ratio", "lower", 0.0, False),
)
FIDELITY = ("jobs_completed", "track_err_p90", "qos_p90")


def per_layer_defs() -> list[tuple[str, str, str]]:
    ungated = [(n, u, b) for n, u, b, _, gated in E2E_METRICS if n in FIDELITY]
    return per_layer_metric_defs() + ungated


def manifest() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/bench.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS.values()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound, gated in E2E_METRICS
            if gated
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer_defs()],
    }


# ------------------------------------------------------------------ running


def instance_seed(seed: int, index: int) -> int:
    # 37 apart: run_fig11 gives trial t of a band the seed base + t, t < 10.
    return seed * 1000 + 37 * index


def spawn(workload: str, seed: int, *, quick: bool, extra: tuple[str, ...] = ()) -> dict:
    """Run child.py once and return the JSON object it printed."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        *(("--quick",) if quick else ()), *extra,
        "--spawned-at", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        cmd,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        stdout=subprocess.PIPE,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


def timed_runs(names: list[str], seed: int, repeats: int, quick: bool) -> dict[str, list[dict]]:
    """``repeats`` untraced runs per workload, interleaved round-robin."""
    records: dict[str, list[dict]] = {name: [] for name in names}
    for index in range(repeats):
        for name in names:
            records[name].append(spawn(name, instance_seed(seed, index), quick=quick))
    # Set-up is a fraction of a second, so its median needs more samples than
    # there are runs; the extra children build the inputs and exit.
    for name in names:
        for _ in range(len(records[name]), SETUP_SAMPLES):
            extra = spawn(name, instance_seed(seed, 0), quick=quick, extra=("--setup-only",))
            records[name][0].setdefault("extra_setup_s", []).append(extra["setup_s"])
    return records


def traced_run(name: str, seed: int, quick: bool, untraced: dict) -> tuple[dict, list[str]]:
    """Repeat run 0 with the wrappers installed; it must reproduce run 0."""
    traced = spawn(
        name, instance_seed(seed, 0), quick=quick,
        extra=("--traced", "--untraced-wall", repr(untraced["wall_s"])),
    )
    problems = list(traced["problems"])
    for key in ("sim_digest", "attempted", "failed", *FIDELITY):
        if traced[key] != untraced[key]:
            problems.append(f"traced {key} {traced[key]!r} != untraced {untraced[key]!r}")
    return traced, problems


def summarise(samples: list[float]) -> dict:
    if len(samples) > 1:
        q1, _, q3 = statistics.quantiles(samples, n=4)
    else:
        q1 = q3 = samples[0]
    return {"median": statistics.median(samples), "q1": q1, "q3": q3, "n": len(samples), "samples": samples}


def operations(records: list[dict]) -> tuple[int, int]:
    """(attempted, failed) over the runs; an operation is one submitted job."""
    return sum(r["attempted"] for r in records), sum(r["failed"] for r in records)


def end_to_end(records: list[dict]) -> dict[str, dict]:
    """Every end-to-end metric of one workload from its untraced runs."""
    samples = {name: [r[name] for r in records] for name, *_ in E2E_METRICS if name != "jobs_lost_share"}
    samples["setup_s"] = samples["setup_s"] + records[0].get("extra_setup_s", [])
    attempted, failed = operations(records)
    samples["jobs_lost_share"] = [failed / attempted]
    return {
        name: {"unit": unit, "better": better, "bound": bound, **summarise(samples[name])}
        for name, unit, better, bound, _ in E2E_METRICS
    }


# ------------------------------------------------------------- driver mode


def driver_mode(args) -> int:
    """The BENCHMARK.json contract: one workload, one JSON object, last line."""
    (name,) = args.workload
    workload = WORKLOADS[name]
    if args.trace:
        untraced = spawn(name, instance_seed(args.seed, 0), quick=args.quick)
        traced, problems = traced_run(name, args.seed, args.quick, untraced)
        problems += untraced["problems"]
        values = {**traced["per_layer"], **{key: traced[key] for key in FIDELITY}}
        metrics = {
            # An unresolved row was already warned about by the child.
            n: {"value": values[n] if values[n] is not None else 0.0, "unit": unit}
            for n, unit, _ in per_layer_defs()
        }
        attempted, failed = traced["attempted"], traced["failed"]
    else:
        repeats = args.repeats or max(MIN_RUNS, math.ceil(args.seconds / workload.nominal_s))
        records = timed_runs([name], args.seed, repeats, args.quick)[name]
        problems = [p for r in records for p in r["problems"]]
        summary = end_to_end(records)
        metrics = {
            n: {"value": summary[n]["median"], "unit": unit}
            for n, unit, _, _, gated in E2E_METRICS
            if gated
        }
        attempted, failed = operations(records)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


# --------------------------------------------------------------- full mode


def full_mode(args) -> int:
    names = args.workload or list(WORKLOADS)
    repeats = args.repeats or (1 if args.quick else 5)
    records = timed_runs(names, args.seed, repeats, args.quick)
    committed = {}
    if (HERE / "baseline.json").exists() and not args.quick:
        baseline = json.loads((HERE / "baseline.json").read_text())
        if baseline["seed"] == args.seed:
            committed = {n: w["sim_digests"] for n, w in baseline["workloads"].items()}
    units = {n: unit for n, unit, _ in per_layer_defs()}

    results: dict[str, dict] = {}
    failed_checks = 0
    for name in names:
        traced, problems = traced_run(name, args.seed, args.quick, records[name][0])
        problems += [p for r in records[name] for p in r["problems"]]
        digests = [r["sim_digest"] for r in records[name]]
        attempted, failed = operations(records[name])
        results[name] = {
            "why": WORKLOADS[name].why,
            "instance_seeds": [r["seed"] for r in records[name]],
            "end_to_end": end_to_end(records[name]),
            "attempted": attempted,
            "failed": failed,
            "sim_digests": digests,
            "per_layer": traced["per_layer"],
            "traced_wall_s": traced["wall_s"],
            "problems": problems,
        }
        failed_checks += len(problems)

        print(f"\n== {name}: {WORKLOADS[name].why}")
        for metric, m in results[name]["end_to_end"].items():
            print(
                f"{name:<16} {metric:<16} {m['median']:>12.4f} {m['unit']:<8}"
                f" [q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, n={m['n']}]"
            )
        for metric, value in traced["per_layer"].items():
            shown = "null" if value is None else f"{value:.6g}"
            print(f"{name:<16} {metric:<36} {shown:>12} {units[metric]}")
        print(f"{name:<16} sim_digest[0] {digests[0]}")
        shared = min(len(digests), len(committed.get(name, [])))
        if committed.get(name, [])[:shared] != digests[:shared]:
            # Printed, not failed: the fidelity bounds of --compare decide.
            print(f"{name:<16} note: sim_digests differ from the committed baseline.json")
        for problem in problems:
            print(f"{name:<16} CHECK FAILED: {problem}")

    output = {
        "seed": args.seed,
        "repeats": repeats,
        "quick": args.quick,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workloads": results,
    }
    path = Path(args.output) if args.output else OUT_DIR / "results.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(output, indent=1) + "\n")
    print(f"\nwrote {path}; {failed_checks} failed checks")
    return 1 if failed_checks else 0


# ----------------------------------------------------------------- compare


def _worsening(a: float, b: float, better: str) -> float:
    """Signed share of ``a`` by which ``b`` is worse (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def _quartile_gap(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def _judge(a: dict, b: dict, paired: bool) -> tuple[float, str]:
    """(ratio B ÷ A, verdict) for one metric of one workload.

    Run ``i`` of both files had the same inputs when the files share their
    seeds, so B is then held against A run by run: the ratio is the median of
    the per-run ratios, and the seed-to-seed differences inside either file
    cancel.  Otherwise the two medians are compared.
    """
    if a["samples"] == b["samples"]:
        return 1.0, "ok (identical)"
    if paired and len(a["samples"]) == len(b["samples"]):
        shares = [_worsening(x, y, a["better"]) for x, y in zip(a["samples"], b["samples"])]
        worse = statistics.median(shares)
        ratio = statistics.median(y / x if x else float("nan") for x, y in zip(a["samples"], b["samples"]))
        spread = _quartile_gap(shares)
        mixed = min(shares) < 0 < max(shares)
    else:
        worse = _worsening(a["median"], b["median"], a["better"])
        ratio = b["median"] / a["median"] if a["median"] else float("nan")
        spread = max(_quartile_gap(m["samples"]) / abs(m["median"]) if m["median"] else 0.0 for m in (a, b))
        mixed = min(a["samples"]) <= max(b["samples"]) and min(b["samples"]) <= max(a["samples"])
    if spread > a["bound"] and mixed:
        return ratio, "unresolved"
    return ratio, "worse" if worse > a["bound"] else "ok"


def compare(path_a: str, path_b: str) -> int:
    a_all = json.loads(Path(path_a).read_text())["workloads"]
    b_all = json.loads(Path(path_b).read_text())["workloads"]
    units = {n: unit for n, unit, _ in per_layer_defs()}
    worse_rows = 0
    print(f"A = {path_a}\nB = {path_b}\nratio = B / A (base: A; run by run where both files used the same seeds)\n")
    print(
        f"{'workload':<16} {'metric':<16} {'A median [q1, q3]':>34} {'B median [q1, q3]':>34}"
        f" {'ratio':>8} {'bound':>6}  verdict"
    )

    def cell(m: dict) -> str:
        return f"{m['median']:.4f} [{m['q1']:.4f}, {m['q3']:.4f}]"

    for name in a_all:
        if name not in b_all:
            continue
        a_w, b_w = a_all[name], b_all[name]
        paired = a_w["instance_seeds"] == b_w["instance_seeds"]
        for metric, a in a_w["end_to_end"].items():
            b = b_w["end_to_end"][metric]
            ratio, verdict = _judge(a, b, paired)
            worse_rows += verdict == "worse"
            print(
                f"{name:<16} {metric:<16} {cell(a):>34} {cell(b):>34} {ratio:>8.3f}"
                f" {a['bound']:>6.2f}  {verdict}"
            )
        same = a_w["sim_digests"] == b_w["sim_digests"]
        print(f"{name:<16} {'sim_digest':<16} {'identical' if same else 'CHANGED'}")
        for metric, value in a_w["per_layer"].items():
            if units.get(metric) == "count" and value != b_w["per_layer"].get(metric):
                print(f"{name:<16} {metric:<16} count changed: {value} -> {b_w['per_layer'].get(metric)}")
    print(f"\n{worse_rows} rows worse than their bound")
    return 1 if worse_rows else 0


# -------------------------------------------------------------------- main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, help="runs per workload (default 5; 1 with --quick)")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="with --trace: host seconds to measure for; sizes the number of runs")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="contract mode: 0 prints end-to-end metrics, 1 per-layer metrics")
    parser.add_argument("--quick", action="store_true", help="durations / 8, 2 trials")
    parser.add_argument("--output", help="results file (default benchmarks/e2e/out/results.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--manifest", action="store_true", help="rewrite BENCHMARK.json from the tables here")
    args = parser.parse_args()

    if args.compare:
        return compare(*args.compare)
    if args.manifest:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(manifest(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: {ROOT / 'src' / 'repro'} not found; run from a full checkout", file=sys.stderr)
        return 2
    if args.trace is not None:
        if not args.workload or len(args.workload) != 1:
            parser.error("--trace needs exactly one --workload")
        return driver_mode(args)
    return full_mode(args)


if __name__ == "__main__":
    sys.exit(main())
