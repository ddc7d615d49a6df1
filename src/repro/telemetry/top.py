"""``anor top`` — a live terminal view of a running two-tier system.

The repo's systems are in-process simulations, so ``top`` runs the Fig. 9
demand-response scenario with telemetry enabled and repaints a frame every
``refresh`` simulated seconds: cluster power vs. target, per-job caps and
modelled slowdowns, queue state, and the most recent incidents.  With
``--once`` (or a non-tty stream) it prints a single final frame and exits,
which is what the tests and CI consume.

``snapshot_system``/``render_frame`` are split so the view is testable:
snapshot reads a live :class:`~repro.core.framework.AnorSystem`, render is a
pure function of the snapshot dict.
"""

from __future__ import annotations

import sys
from typing import TextIO

from repro.telemetry import summarize_incidents

__all__ = ["snapshot_system", "render_frame", "run_top"]


def snapshot_system(system) -> dict:
    """Read one display frame's worth of state from a live AnorSystem."""
    now = system.cluster.clock.now
    manager = system.manager
    target = system.read_target(now)
    jobs = []
    if manager is not None:
        for record in sorted(manager.jobs.values(), key=lambda r: r.job_id):
            status = record.last_status
            model = record.active_model
            cap = record.last_cap
            slowdown = None
            if cap is not None:
                try:
                    slowdown = float(model.slowdown_at(cap))
                except (ValueError, ZeroDivisionError):
                    slowdown = None
            jobs.append(
                {
                    "job_id": record.job_id,
                    "type": record.claimed_type,
                    "nodes": record.nodes,
                    "cap": cap,
                    "power": status.measured_power if status is not None else None,
                    "slowdown": slowdown,
                    "model": "recovering" if record.link is None  # no re-HELLO yet
                    else "online" if record.online_model is not None else "believed",
                    "silent_for": now - record.last_heard,
                }
            )
    last_round = manager.last_round if manager is not None else None
    return {
        "t": now,
        "head_up": manager is not None,
        "target": target,
        "measured": system.cluster.measured_power,
        "policy": system.budgeter.name,
        "jobs": jobs,
        "queued": len(system._queue),
        "pending": len(system._pending),
        "running": len(system.cluster.running),
        "completed": len(system.cluster.completed),
        "round": {
            "correction": last_round.correction,
            "allocated": last_round.allocated,
            "reserved": last_round.reserved,
            "idle_power": last_round.idle_power,
            "stale": last_round.stale_jobs,
            "dormant": last_round.dormant_jobs,
            "active": last_round.active_jobs,
            "recovering": last_round.recovering_jobs,
        }
        if last_round is not None
        else None,
        "incident_counts": system.telemetry.incident_counts,
        "recent_incidents": [
            f"t={r['t']:.0f} {r['attrs'].get('category', '?')}"
            for r in system.telemetry.incidents()[-5:]
        ],
    }


def _bar(value: float, lo: float, hi: float, width: int = 30) -> str:
    """A fixed-width meter bar positioning ``value`` within [lo, hi]."""
    if hi <= lo:
        return "·" * width
    frac = min(max((value - lo) / (hi - lo), 0.0), 1.0)
    filled = round(frac * width)
    return "█" * filled + "·" * (width - filled)


def render_frame(snap: dict) -> str:
    """Render one snapshot as a fixed-layout text frame."""
    target, measured = snap["target"], snap["measured"]
    lo = 0.9 * min(target, measured) if min(target, measured) > 0 else 0.0
    hi = 1.1 * max(target, measured, 1.0)
    head = "UP" if snap["head_up"] else "DOWN"
    lines = [
        f"anor top — t={snap['t']:.0f}s  policy={snap['policy']}  head={head}",
        f"  target   {target:8.0f} W  [{_bar(target, lo, hi)}]",
        f"  measured {measured:8.0f} W  [{_bar(measured, lo, hi)}]",
        f"  jobs: {snap['running']} running, {snap['queued']} queued, "
        f"{snap['pending']} pending, {snap['completed']} done",
    ]
    rnd = snap["round"]
    if rnd is not None:
        lines.append(
            f"  round: active={rnd['active']} dormant={rnd['dormant']} "
            f"stale={rnd['stale']} recovering={rnd['recovering']}  "
            f"allocated={rnd['allocated']:.0f}W reserved={rnd['reserved']:.0f}W "
            f"correction={rnd['correction']:+.0f}W"
        )
    lines.append("")
    lines.append(f"  {'JOB':<16} {'TYPE':<6} {'N':>2} {'CAP/W':>7} "
                 f"{'POWER/W':>8} {'SLOWDOWN':>8} {'MODEL':<8}")
    for job in snap["jobs"]:
        cap = f"{job['cap']:.0f}" if job["cap"] is not None else "-"
        power = f"{job['power']:.0f}" if job["power"] is not None else "-"
        # slowdown_at is fractional (0.09 = 9 % slower than uncapped).
        slow = f"{100 * job['slowdown']:+.0f}%" if job["slowdown"] is not None else "-"
        lines.append(
            f"  {job['job_id']:<16} {job['type']:<6} {job['nodes']:>2} "
            f"{cap:>7} {power:>8} {slow:>8} {job['model']:<8}"
        )
    if not snap["jobs"]:
        lines.append("  (no connected jobs)")
    lines.append("")
    lines.append("  incidents:")
    lines.extend(summarize_incidents(snap["incident_counts"]))
    for line in snap["recent_incidents"]:
        lines.append(f"    {line}")
    return "\n".join(lines)


def run_top(
    *,
    duration: float = 600.0,
    seed: int = 0,
    refresh: float = 10.0,
    once: bool = False,
    stream: TextIO | None = None,
) -> int:
    """Run the Fig. 9 scenario with telemetry on, repainting a live frame.

    Interactive ttys get an ANSI repaint every ``refresh`` simulated
    seconds; ``once=True`` (or a non-tty stream) renders only the final
    frame.  Returns a process exit code.
    """
    from repro.core.framework import AnorConfig
    from repro.experiments.fig9 import build_demand_response_system

    out = stream if stream is not None else sys.stdout
    live = not once and out.isatty()
    cfg = AnorConfig(seed=seed, telemetry_enabled=True)
    system = build_demand_response_system(duration=duration, seed=seed, config=cfg)
    next_paint = 0.0
    while system.cluster.clock.now < duration:
        system.step()
        if live and system.cluster.clock.now >= next_paint:
            frame = render_frame(snapshot_system(system))
            out.write("\x1b[2J\x1b[H" + frame + "\n")
            out.flush()
            next_paint = system.cluster.clock.now + refresh
    out.write(render_frame(snapshot_system(system)) + "\n")
    out.flush()
    return 0
