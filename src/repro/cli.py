"""Command-line entry points: ``anor <experiment> [options]``.

Each figure subcommand regenerates one of the paper's figures, run as its
row of :data:`repro.experiments.figures.FIGURES` says, and prints the
paper-vs-measured comparison table.  Scaled-down runs (for quick checks) are
available through ``--quick``.  ``--seeds`` sweeps a figure over several
seeds, one run per seed; ``--jobs N`` fans those runs (or ``all``'s figures)
over N worker processes (see :mod:`repro.runner`).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable

from repro.experiments import figures


def _drill(name: str, quick: bool, seed: int | None, **params) -> tuple[str, bool]:
    """Run one resilience drill; returns its report and whether every claim
    held.  ``seed=None`` keeps the drill's own calibrated default seed."""
    from repro.experiments import resilience, scorecard

    result = resilience.run_drill(name, quick=quick, seed=seed, **params)
    card = scorecard.score(name, result.metrics)
    return f"{resilience.format_drill(result)}\n\n{card.render()}", card.all_passed


def _sweep_drill(name: str, quick: bool, seed: int, **params) -> tuple[str, bool]:
    """:func:`_drill` for one seed of a sweep: a named checkpoint directory
    gets a ``seed-N`` subdirectory per seed, so no seed restarts from
    another's checkpoint and journal."""
    if params.get("checkpoint_dir") is not None:
        params["checkpoint_dir"] = str(Path(params["checkpoint_dir"]) / f"seed-{seed}")
    return _drill(name, quick, seed, **params)


def _resilience(quick: bool, seed: int | None) -> str:
    return _drill("faults", quick, seed)[0]


def _run_all(
    quick: bool,
    seed: int | None,
    out_dir: str | None,
    jobs: int = 1,
    seeds: list[int] | None = None,
) -> str:
    """Run every figure and ``resilience``, optionally archiving tables +
    CSVs to a directory.

    With ``jobs > 1`` the figures run concurrently; outcomes merge back in
    figure-name order, so the archived tables are identical to a serial run.
    ``seeds`` sweeps the whole figure set once per seed; all batches share
    one worker pool, so workers start once for the entire sweep.
    """
    from repro.runner import ExperimentTask, WorkerPool, run_tasks

    out = Path(out_dir) if out_dir else None
    if out is not None:
        out.mkdir(parents=True, exist_ok=True)
    sweep = seeds if seeds else [seed]
    lines: list[str] = []
    failed: list[str] = []
    with WorkerPool(jobs) as pool:
        for s in sweep:
            sub = out
            if out is not None and len(sweep) > 1:
                sub = out / f"seed-{s}"
                sub.mkdir(parents=True, exist_ok=True)
            tasks = [ExperimentTask("resilience", _resilience, {"quick": quick, "seed": s})]
            for name, figure in figures.FIGURES.items():
                csv = str(sub / f"{name}.csv") if sub is not None and figure.csv else None
                kwargs = {"name": name, "quick": quick, "seed": s, "csv_path": csv}
                tasks.append(ExperimentTask(name, figures.report, kwargs))
            tasks.sort(key=lambda task: task.key)
            prefix = f"[seed={s}] " if len(sweep) > 1 else ""
            for outcome in run_tasks(tasks, pool=pool):
                lines.append(f"=== {prefix}{outcome.key} ({outcome.elapsed:.1f}s) ===")
                if outcome.ok:
                    lines.append(outcome.table)
                    if sub is not None:
                        (sub / f"{outcome.key}.txt").write_text(outcome.table + "\n")
                else:
                    lines.append(f"FAILED: {outcome.error}")
                    failed.append(f"{prefix}{outcome.key}")
                lines.append("")
    if out is not None:
        lines.append(f"[tables and CSVs archived under {out}]")
    if failed:
        lines.append(f"[{len(failed)} experiment(s) failed: {', '.join(failed)}]")
    return "\n".join(lines)


def _run_seed_sweep(
    key: str, fn: Callable, seeds: list[int], jobs: int, **kwargs
) -> tuple[str, bool]:
    """Run ``fn(seed=s, **kwargs)`` once per seed, fanned over ``jobs``
    workers; returns the labelled tables and whether every run passed.  A
    run passes unless it raised, or returned a ``(table, ok)`` pair (a
    drill's report and scorecard verdict) with ``ok`` false."""
    from repro.runner import ExperimentTask, run_tasks

    tasks = [
        ExperimentTask(key=f"{key}[seed={s}]", fn=fn, kwargs={**kwargs, "seed": s})
        for s in seeds
    ]
    lines, passed = [], True
    for outcome in run_tasks(tasks, jobs=jobs):
        table, ok = outcome.table, outcome.ok
        if not ok:
            table = f"FAILED: {outcome.error}"
        elif isinstance(table, tuple):
            table, ok = table
        passed = passed and ok
        lines += [f"=== {outcome.key} ({outcome.elapsed:.1f}s) ===", table, ""]
    return "\n".join(lines), passed


def _seed_list(parser: argparse.ArgumentParser, text: str) -> list[int]:
    seeds = [int(s) for s in text.split(",") if s.strip() != ""]
    if not seeds:
        parser.error("--seeds must name at least one seed")
    return seeds


#: The commands beside the figures of ``figures.FIGURES``.
_COMMANDS = {
    "resilience": "fig9 workload under the standard fault load",
    "all": "run every figure; --out archives tables and CSVs",
}


def _add_observability_commands(sub) -> None:
    """``anor top`` and ``anor trace`` — consumers of repro.telemetry.

    Deliberately NOT experiments: they are views over a run, not figures,
    so ``anor all`` must not iterate them.
    """
    top = sub.add_parser(
        "top", help="live terminal view of the fig9 system (telemetry on)"
    )
    top.add_argument("--duration", type=float, default=600.0)
    top.add_argument("--seed", type=int, default=0)
    top.add_argument(
        "--refresh", type=float, default=10.0, help="simulated seconds per repaint"
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="print a single final frame (default on non-tty output)",
    )
    prof = sub.add_parser(
        "profile",
        help="run one figure under cProfile and print the hottest functions",
    )
    prof.add_argument(
        "figure", choices=[*figures.FIGURES, "resilience"],
        help="which figure to profile",
    )
    prof.add_argument("--quick", action="store_true")
    prof.add_argument("--seed", type=int, default=None)
    prof.add_argument(
        "--top", type=int, default=25, help="functions to show (default 25)"
    )
    prof.add_argument(
        "--sort",
        choices=["cumulative", "tottime", "calls"],
        default="cumulative",
        help="pstats sort key (default cumulative)",
    )
    prof.add_argument(
        "--out", default=None, help="also write the report to this file"
    )
    trace = sub.add_parser(
        "trace", help="export or summarize structured JSONL traces"
    )
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export", help="run fig9 with telemetry and write the JSONL trace"
    )
    export.add_argument("--out", required=True, help="trace output path")
    export.add_argument("--duration", type=float, default=600.0)
    export.add_argument("--seed", type=int, default=0)
    summary = trace_sub.add_parser(
        "summary", help="validate a JSONL trace and print record counts"
    )
    summary.add_argument("path", help="trace file to read")


def _run_profile(
    name: str, quick: bool, seed: int | None, top: int, sort: str, out: str | None
) -> str:
    """Profile one figure run and render the top-N hot functions.

    The figure executes exactly as ``anor <figure>`` would (same seed, same
    config, same windowed engine), so the report reflects the real
    simulation hot path rather than a synthetic kernel.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        if name == "resilience":
            _resilience(quick, seed)
        else:
            figures.report(name, quick, seed)
    finally:
        profiler.disable()
    elapsed = time.perf_counter() - start
    buf = io.StringIO()
    stats = pstats.Stats(profiler, stream=buf)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    report = (
        f"profile: {name} (quick={quick}, seed={seed}), "
        f"wall {elapsed:.2f}s, sorted by {sort}\n{buf.getvalue()}"
    )
    if out is not None:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
    return report


def _run_trace_export(out: str, duration: float, seed: int) -> str:
    from repro.core.framework import AnorConfig
    from repro.experiments.fig9 import build_demand_response_system

    cfg = AnorConfig(seed=seed, telemetry_enabled=True, trace_path=out)
    system = build_demand_response_system(duration=duration, seed=seed, config=cfg)
    # The sink is a context manager: the trace is flushed and closed even if
    # the run raises or the CLI is torn down early — no truncated traces.
    with system.telemetry.trace_sink as sink:
        system.run(duration)
    return f"wrote {sink.records_written} trace records to {out}"


def _run_trace_summary(path: str) -> tuple[str, int]:
    import json

    from repro.telemetry.schema import summarize_trace, validate_trace

    with open(path, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    errors = validate_trace(records)
    summary = summarize_trace(records)
    lines = [
        f"records   : {summary['records']}",
        f"time range: t={summary['t_min']} .. t={summary['t_max']}",
    ]
    for key in ("spans", "events", "incidents"):
        counts = ", ".join(f"{k}×{v}" for k, v in sorted(summary[key].items()))
        lines.append(f"{key:<10}: {counts or '(none)'}")
    if errors:
        lines.append(f"INVALID: {len(errors)} schema error(s), first: {errors[0]}")
    else:
        lines.append("schema    : valid")
    return "\n".join(lines), (1 if errors else 0)


class _Drills:
    """The ``--drill`` choices, read from ``resilience.SCENARIOS`` only when a
    drill name is checked or ``anor resilience --help`` prints them, so that
    building the parser imports no experiment (DESIGN.md §7, *Startup*)."""

    def __iter__(self):
        from repro.experiments.resilience import SCENARIOS

        return iter(SCENARIOS)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="anor",
        description="Reproduce the figures of 'An End-to-End HPC Framework "
        "for Dynamic Power Objectives' (SC-W 2023).",
    )
    sub = parser.add_subparsers(dest="experiment", required=True)
    _add_observability_commands(sub)
    parsers = {}
    commands = {**{name: f.help for name, f in figures.FIGURES.items()}, **_COMMANDS}
    for name, help_text in commands.items():
        p = parsers[name] = sub.add_parser(name, help=help_text)
        p.add_argument("--quick", action="store_true", help="scaled-down run")
        p.add_argument(
            "--jobs",
            type=int,
            default=1,
            help="worker processes for all's figures or --seeds' runs (default: serial)",
        )
        p.add_argument(
            "--seed", type=int, default=None, help="default: each figure's (drill's) own"
        )
        p.add_argument(
            "--seeds",
            default=None,
            help="comma-separated seed list: run once per seed, fanned over --jobs "
            "workers (all: the whole figure set per seed, on one worker pool)",
        )
        if name in figures.FIGURES and figures.FIGURES[name].csv:
            p.add_argument(
                "--csv", default=None, help="also write the plotted series as CSV"
            )
        if name == "resilience":
            p.add_argument(
                "--drill",
                choices=_Drills(),
                metavar="DRILL",
                default="faults",
                help="which drill to run and score: %(choices)s (default: "
                "faults, the fig9 workload under the standard fault load)",
            )
            p.add_argument(
                "--checkpoint-dir",
                default=None,
                help="headnode drill: directory for the cluster-tier "
                "checkpoint/journal (default: a temp dir removed afterwards)",
            )
            p.add_argument(
                "--checkpoint-period",
                type=float,
                default=None,
                help="headnode drill: seconds between cluster-tier "
                "checkpoints (default 30)",
            )
            p.add_argument(
                "--episodes",
                type=int,
                default=None,
                help="soak drill: number of seeded episodes (default 240)",
            )
        if name == "all":
            p.add_argument(
                "--out", default=None, help="directory to archive tables and CSVs"
            )
    args = parser.parse_args(argv)
    if args.experiment == "top":
        from repro.telemetry.top import run_top

        return run_top(
            duration=args.duration,
            seed=args.seed,
            refresh=args.refresh,
            once=args.once,
        )
    if args.experiment == "profile":
        print(
            _run_profile(
                args.figure, args.quick, args.seed, args.top, args.sort, args.out
            )
        )
        return 0
    if args.experiment == "trace":
        if args.trace_command == "export":
            print(_run_trace_export(args.out, args.duration, args.seed))
            return 0
        table, code = _run_trace_summary(args.path)
        print(table)
        return code
    if args.experiment != "all" and args.jobs > 1 and not args.seeds:
        parsers[args.experiment].error(f"--jobs {args.jobs} needs --seeds")
    csv_path = getattr(args, "csv", None)
    if csv_path is not None and args.seeds:
        parsers[args.experiment].error("--csv writes one run's series; drop it or --seeds")
    start = time.perf_counter()
    exit_code = 0
    if args.experiment == "all":
        all_seeds = _seed_list(parser, args.seeds) if args.seeds else None
        table = _run_all(
            args.quick, args.seed, args.out, jobs=args.jobs, seeds=all_seeds
        )
    elif args.experiment == "resilience":
        from repro.experiments.resilience import SCENARIOS

        given = {
            k: v
            for k in ("checkpoint_dir", "checkpoint_period", "episodes")
            if (v := getattr(args, k)) is not None
        }
        stray = [k for k in given if k not in SCENARIOS[args.drill].params]
        if stray:
            flags = ", ".join("--" + k.replace("_", "-") for k in stray)
            parsers["resilience"].error(f"{flags}: not an option of --drill {args.drill}")
        if args.seeds:
            table, ok = _run_seed_sweep(
                f"resilience --drill {args.drill}", _sweep_drill, _seed_list(parser, args.seeds),
                args.jobs, name=args.drill, quick=args.quick, **given,
            )
        else:
            table, ok = _drill(args.drill, args.quick, args.seed, **given)
        # A drill is a claim check, not just a report: a failed scorecard
        # claim, on any seed of a sweep, must fail the invoking script/CI job.
        exit_code = 0 if ok else 1
    elif args.seeds:
        table, _ = _run_seed_sweep(
            args.experiment, figures.report, _seed_list(parser, args.seeds), args.jobs,
            name=args.experiment, quick=args.quick,
        )
    else:
        table = figures.report(args.experiment, args.quick, args.seed, csv_path)
    print(table)
    print(f"\n[{args.experiment} completed in {time.perf_counter() - start:.1f}s]")
    return exit_code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
