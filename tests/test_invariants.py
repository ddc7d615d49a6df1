"""``repro.invariants`` as a mutation list (DESIGN.md §4h, *Monitors*).

For every predicate one crafted ``BudgetRound`` / result that breaks it by
just over its slack and one that sits just inside; then the seam itself: a
manager built without monitors has the stage lists it always had, one built
with them ends its round in ``_observe``, and a monitor armed on a live
system sees a sabotaged budgeter from inside ``run()``'s windows.
"""

import inspect
import re
from pathlib import Path
from types import SimpleNamespace as NS

import numpy as np
import pytest

from repro import invariants as inv
from repro.budget.base import BudgetAllocation, JobBudgetRequest
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.framework import AnorConfig, AnorSystem
from repro.core.round import BudgetRound
from repro.core.targets import ConstantTarget
from repro.workloads.nas import NAS_TYPES

P_MIN, P_MAX = 140.0, 280.0


def round_(**fields) -> BudgetRound:
    base = dict(time=10.0, jobs={}, report=lambda *a, **k: None, occupied=True)
    return BudgetRound(**{**base, **fields})


def requests():
    return [
        JobBudgetRequest(f"{name}-0", nodes, NAS_TYPES[name].truth, P_MIN, P_MAX)
        for name, nodes in (("bt", 2), ("sp", 1), ("cg", 4))
    ]


def planned(allocated):
    # floor = idle = 100 W, so the ceiling is the 1000 W target.
    return round_(target=1000.0, idle_power=100.0, allocated=allocated)


def pooled(cap):
    # available 1000 W, nothing reserved: a 1000 W pool over 2 nodes.
    return round_(available=1000.0, active=[NS(job_id="a", nodes=2)], caps={"a": cap})


def ranged(job_id, cap):
    req = JobBudgetRequest("a", 1, NAS_TYPES["bt"].truth, P_MIN, P_MAX)
    return round_(requests=[req], caps={"a": 200.0, job_id: cap})


def solved(nudge=0.0, **meta):
    reqs = requests()
    alloc = EvenSlowdownBudgeter().allocate(reqs, 7 * 200.0)
    assert 1.0 < alloc.meta["slowdown"]  # an interior solve, not a clamp
    caps = dict(alloc.caps)
    caps["sp-0"] += nudge
    return round_(requests=reqs, allocation=BudgetAllocation(
        caps=caps, budget=alloc.budget, meta={**alloc.meta, **meta}))


def acted(action, claimed):
    return round_(jobs={"a": NS(claimed_type=claimed)}, actions=[(action, "a")])


def result(*job_ids):
    return NS(completed=[NS(job_id=j) for j in job_ids])


def audited(victims):
    went = NS(new="quarantined", job_id="x", time=5.0)
    back = NS(new="trusted", job_id="x", time=9.0)
    return NS(manager=NS(auditor=NS(transitions=[went, back])),
              faults=NS(victims=victims))


def trace(over_from, over_to):
    t = np.arange(0.0, 100.0)
    measured = np.where((t >= over_from) & (t <= over_to), 1101.0, 1000.0)
    return np.column_stack([t, np.full_like(t, 1000.0), measured])


def tracked(excess, tail=0.0):
    # reserve 100 W: an error of 0.3 is the paper's 30 % constraint.
    t = np.arange(0.0, 100.0)
    measured = 1000.0 + np.where(t <= 89.0, excess, tail)
    return np.column_stack([t, np.full_like(t, 1000.0), measured])


def converged(off):
    t = np.arange(0.0, 100.0)
    target = np.full_like(t, 1000.0)
    return NS(power_trace=np.column_stack([t, target, target + off]))


def calmed(loud_until):
    t = np.arange(0.0, 300.0)
    measured = np.where((t >= 40.0) & (t <= loud_until), 1100.0, 1000.0)
    return np.column_stack([t, np.full_like(t, 1000.0), measured])


#: One fault loud until t = 10 s + CALM_SETTLE = 100 s.
FAULTS = [NS(time=0.0, duration=10.0)]


#: name -> (what ``check`` returns when broken is truthy, when kept falsy).
MUTATIONS = {
    "planned_within_ceiling": (
        lambda: inv.planned_within_ceiling(planned(900.2)),
        lambda: inv.planned_within_ceiling(planned(900.05)),
    ),
    "caps_within_pool": (
        lambda: inv.caps_within_pool(pooled(500.1)),
        lambda: inv.caps_within_pool(pooled(500.025)),
    ),
    "caps_in_range": (
        lambda: inv.caps_in_range(ranged("b", np.nextafter(P_MIN, 0.0))),
        lambda: inv.caps_in_range(ranged("b", P_MIN)),
    ),
    "single_slowdown": (
        lambda: inv.single_slowdown(solved(nudge=1e-6)),
        lambda: inv.single_slowdown(solved()),
    ),
    "protected_never_shed": (
        lambda: inv.protected_never_shed(acted("preempt", "ft"), {"ft"}),
        lambda: inv.protected_never_shed(acted("kill", "cg"), {"ft"})
        or inv.protected_never_shed(acted("orphan", "ft"), {"ft"}),
    ),
    "ramp_bounded": (
        lambda: inv.ramp_bounded(round_(target=1101.5), 1000.0, 100.0),
        lambda: inv.ramp_bounded(round_(target=1100.5), 1000.0, 100.0),
    ),
    "trim_held_when_empty": (
        lambda: inv.trim_held_when_empty(
            round_(occupied=False, correction=np.nextafter(5.0, 6.0)), 5.0),
        # A round that budgets a job is the one the trim may move on.
        lambda: inv.trim_held_when_empty(round_(occupied=False, correction=5.0), 5.0)
        or inv.trim_held_when_empty(round_(correction=9.0), 5.0),
    ),
    "lost_jobs": (
        lambda: inv.lost_jobs(result("a", "b"), result("a")),
        lambda: inv.lost_jobs(result("a", "b"), result("b", "a", "c")),
    ),
    "double_admitted": (
        lambda: inv.double_admitted(result("a", "b", "a")),
        lambda: inv.double_admitted(result("a", "b")),
    ),
    "ghost_records": (
        lambda: inv.ghost_records(NS(manager=NS(jobs={"a": None}))),
        lambda: inv.ghost_records(NS(manager=NS(jobs={}))),
    ),
    "collateral_quarantines": (
        lambda: inv.collateral_quarantines(audited({"y": ("stuck-actuator", 1.0, None)})),
        lambda: inv.collateral_quarantines(audited({"x": ("stuck-actuator", 1.0, None)})),
    ),
    "longest_over_limit": (
        lambda: inv.longest_over_limit(trace(20, 51), floor=900.0, tol=0.1, after=10.0) > 30.0,
        lambda: inv.longest_over_limit(trace(20, 50), floor=900.0, tol=0.1, after=10.0) > 30.0,
    ),
    "tracking_error_p90": (
        lambda: inv.tracking_error_p90(tracked(31.0), 100.0, warmup=10.0, until=89.0) > 0.3,
        # The drain tail past ``until`` does not count.
        lambda: inv.tracking_error_p90(
            tracked(30.0, tail=500.0), 100.0, warmup=10.0, until=89.0) > 0.3,
    ),
    "convergence_time": (
        lambda: inv.convergence_time(
            converged(0.0), converged(5.01), after=10.0, tol_watts=5.0) is None,
        lambda: inv.convergence_time(
            converged(0.0), converged(5.0), after=10.0, tol_watts=5.0) is None,
    ),
    "overshoot_stats": (
        lambda: inv.overshoot_stats(trace(20, 31), 31.0, 60.0)[0],
        lambda: inv.overshoot_stats(trace(20, 30), 31.0, 60.0)[0],
    ),
    "calm_overshoot": (
        lambda: inv.calm_overshoot(calmed(100.0), FAULTS)[1] > 0.0,
        lambda: inv.calm_overshoot(calmed(99.0), FAULTS)[1] > 0.0,
    ),
}


def documented() -> dict[str, str]:
    """name -> kind, from DESIGN.md §4h's *Monitors* table."""
    design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
    section = design.split("\n**Monitors.**", 1)[1].split("\n## ", 1)[0]
    return dict(re.findall(r"^\| `(\w+)` \|.*\| (round|run)[^|]*\|$", section, flags=re.M))


def test_the_design_table_the_module_and_the_mutation_list_name_the_same_invariants():
    table = documented()
    predicates = {
        name for name in inv.__all__
        if name.islower() and name not in ("quarantines", "rounds_over_ceiling")
    }
    assert set(table) == predicates == set(MUTATIONS)
    for name, kind in table.items():
        takes_a_round = "rnd" in inspect.signature(getattr(inv, name)).parameters
        assert takes_a_round == (kind == "round"), name
        assert "§" in getattr(inv, name).__doc__, f"{name} names no source"


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_broken_just_over_the_slack_and_kept_just_inside(name):
    broken, kept = MUTATIONS[name]
    assert broken(), f"{name} missed its mutant"
    assert not kept(), f"{name} fired inside its slack"


def test_caps_above_the_requests_ceiling_and_held_or_warm_solves():
    assert inv.caps_in_range(ranged("a", np.nextafter(P_MAX, 1e3)))
    assert not inv.caps_in_range(ranged("a", P_MAX))
    # Caps the planner's hysteresis held, and a warm start that carries no
    # ``s``, are not the budgeter's rule and are not held to it.
    assert not inv.single_slowdown(solved(nudge=1.0, plan_held_caps=1.0))
    warm = solved(nudge=1.0)
    del warm.allocation.meta["slowdown"]
    assert not inv.single_slowdown(warm)
    # Below the floor the caps cannot get under the pool: not a violation.
    assert not inv.caps_within_pool(round_(
        available=100.0, active=[NS(job_id="a", nodes=2)], caps={"a": P_MIN}))


def test_rounds_over_ceiling_is_the_same_slack_over_a_table():
    rows = np.array([[1.0, 1000.0, 1000.05], [2.0, 1000.0, 1000.2]])
    assert inv.rounds_over_ceiling(rows).tolist() == [[2.0, 1000.0, 1000.2]]
    assert inv.quarantines(audited({})) == {"x": 5.0}


# ------------------------------------------------------------------ the seam

DEFAULT_STAGES = [
    "_drain_messages", "_evict_dead", "_reconcile_recovery", "_read_target",
    "_read_meter", "_budget", "_publish",
]
DEFAULT_BUDGET_STAGES = ["_triage", "_reserve", "_solve", "_dispatch"]


def names(stages):
    return [stage.__name__ for stage in stages]


class TestTheSeam:
    def test_no_monitors_no_stage(self):
        manager = AnorSystem(config=AnorConfig()).manager
        assert names(manager._stages) == DEFAULT_STAGES
        assert names(manager._budget_stages) == DEFAULT_BUDGET_STAGES

    def test_monitors_are_one_last_stage_and_survive_a_head_restart(self):
        seen = []
        system = AnorSystem(config=AnorConfig(), monitors=[seen.append])
        first = system.manager
        assert names(first._stages) == DEFAULT_STAGES + ["_observe"]
        assert names(first._budget_stages) == DEFAULT_BUDGET_STAGES
        system.submit_now("a", "bt", nodes=4)
        system.run(5.0)
        system.crash_head_node()
        system.run(5.0)
        assert len(seen) == 5
        system.restart_head_node()
        system.run(5.0)
        assert system.manager is not first
        assert [rnd.time for rnd in seen[5:]] == [11.0, 12.0, 13.0, 14.0, 15.0]
        assert seen[-1].jobs is system.manager.jobs

    def test_a_sabotaged_budgeter_is_caught_inside_run(self, monkeypatch):
        """Periods above the tick, so the rounds are checked from inside
        multi-tick windows, where no per-tick driver could look."""
        honest = EvenSlowdownBudgeter.allocate

        def generous(self, jobs, budget):
            alloc = honest(self, jobs, budget)
            return BudgetAllocation(
                {j: cap + 1.0 for j, cap in alloc.caps.items()}, budget, alloc.meta)

        cfg = AnorConfig(num_nodes=8, seed=1, agent_period=5.0,
                         endpoint_period=5.0, manager_period=10.0)

        def run(monitor):
            system = AnorSystem(target_source=ConstantTarget(8 * 170.0),
                                config=cfg, monitors=[monitor])
            system.submit_now("a", "bt", nodes=4)
            system.submit_now("b", "sp", nodes=4)
            system.run(120.0)
            return monitor

        clean = run(inv.RoundMonitor())
        assert len(clean.rows) > 5 and not clean.violations
        monkeypatch.setattr(EvenSlowdownBudgeter, "allocate", generous)
        caught = {name for name, _, _ in run(inv.RoundMonitor()).violations}
        assert {"single_slowdown", "caps_within_pool", "planned_within_ceiling"} <= caught

    def test_the_trim_is_held_between_rounds_of_one_manager(self):
        monitor, jobs = inv.RoundMonitor(), {}
        monitor(round_(jobs=jobs, correction=3.0))  # budgeted: the trim moved
        monitor(round_(jobs=jobs, correction=3.0, occupied=False))
        monitor(round_(jobs=jobs, correction=4.0, occupied=False))
        assert [(name, what) for name, _, what in monitor.violations] == [
            ("trim_held_when_empty", "trim moved 3.0 -> 4.0W on a round with no job")]
        # A restarted head starts from its restored trim: a new baseline.
        monitor(round_(jobs={}, correction=7.0, occupied=False))
        assert len(monitor.violations) == 1 and len(monitor.rows) == 1

    def test_ladder_invariants_are_armed_by_a_shed_config(self):
        cfg = AnorConfig(shed_enabled=True, shed_classes={"ft": "protected"})
        monitor = inv.RoundMonitor(cfg)
        jobs = {"a": NS(claimed_type="ft")}
        monitor(round_(jobs=jobs, target=1000.0, occupied=False))
        monitor(round_(jobs=jobs, target=1099.0, occupied=False))
        monitor(round_(jobs=jobs, target=1300.0, actions=[("kill", "a")]))
        assert monitor.max_ramp_step == 201.0
        assert [name for name, _, _ in monitor.violations] == [
            "protected_never_shed", "ramp_bounded"]
        # A restarted head starts a new ladder: a new baseline, no ramp claim.
        monitor(round_(jobs={}, target=3000.0, occupied=False))
        assert len(monitor.violations) == 2 and len(monitor.rows) == 1
        off = inv.RoundMonitor(AnorConfig())
        off(round_(jobs=jobs, target=9000.0, actions=[("kill", "a")], occupied=False))
        assert not off.violations
