"""The manager round as an ordered stage list (DESIGN.md §4h).

What the structure promises, checked on the structure: a feature that is off
contributes no stage, the all-features round runs in the order DESIGN.md
documents, every shed / plan / breaker transition has one emission site, and
the framework enforces what rounds hand back at one seam.
"""

import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.core.cluster_manager import ClusterPowerManager
from repro.core.framework import AnorConfig, AnorSystem
from repro.core.targets import ConstantTarget
from repro.experiments.fig9 import (
    DEFAULT_AVERAGE_POWER,
    DEFAULT_RESERVE,
    build_demand_response_system,
)
from repro.faults.events import FeederLoss, ThermalDerate
from repro.faults.schedule import FaultSchedule
from repro.workloads.trace import JobRequest, Schedule

#: The ``dr16_hardened`` configuration of ``benchmarks/e2e/workloads.py``.
HARDENED = dict(
    telemetry_enabled=True,
    lease_ttl=20.0,
    reliable_messaging=True,
    audit_enabled=True,
    plan_enabled=True,
    shed_enabled=True,
    shed_nominal_watts=DEFAULT_AVERAGE_POWER - DEFAULT_RESERVE,
    breaker_margin=0.2,
)

#: Switching a feature off: config override -> the stage owner that must go.
FEATURES = {
    "shed": dict(shed_enabled=False),
    "planner": dict(plan_enabled=False),
    "breaker": dict(breaker_margin=None),
    "auditor": dict(audit_enabled=False),
    "journal": dict(checkpoint_dir=None),
    "telemetry": dict(telemetry_enabled=False),
}

JOURNAL_STAGES = {"manager._journal_target", "manager._journal_caps"}
TELEMETRY_STAGES = {
    "manager._open_round", "manager._trace_target", "manager._open_budget",
    "manager._close_budget", "manager._trace_caps", "manager._close_round",
}


def build(tmp_path, **overrides) -> AnorSystem:
    cfg = dict(HARDENED, checkpoint_dir=str(tmp_path / "store"))
    cfg.update(overrides)
    return AnorSystem(config=AnorConfig(**cfg))


def stage_names(manager: ClusterPowerManager) -> list[str]:
    """``owner.stage`` for every stage of a round with jobs, in run order
    (the budgeting stages spliced in where ``_budget`` runs them)."""
    owners = {
        id(manager): "manager", id(manager.shed): "shed",
        id(manager.planner): "planner", id(manager.breaker): "breaker",
        id(manager.auditor): "auditor",
    }
    names = []
    for stage in manager._stages:
        if stage == manager._budget:
            names += [
                f"{owners[id(s.__self__)]}.{s.__name__}"
                for s in manager._budget_stages
            ]
        else:
            names.append(f"{owners[id(stage.__self__)]}.{stage.__name__}")
    return names


def owner_of(name: str) -> str:
    if name in JOURNAL_STAGES:
        return "journal"
    if name in TELEMETRY_STAGES:
        return "telemetry"
    return name.split(".")[0]


def documented_order() -> list[str]:
    """First column of DESIGN.md's manager-round table."""
    design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
    table = design.split("\n## 4h.", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^\| `([a-z]+\.[a-z_]+)` ", table, flags=re.M)


class TestStageList:
    def test_default_manager_holds_no_feature_stage(self):
        manager = AnorSystem(config=AnorConfig()).manager
        names = stage_names(manager)
        assert {owner_of(n) for n in names} == {"manager"}
        assert all(s.__self__ is manager
                   for s in manager._stages + manager._budget_stages)

    def test_hardened_round_runs_in_the_documented_order(self, tmp_path):
        names = stage_names(build(tmp_path).manager)
        assert names == documented_order()
        assert {owner_of(n) for n in names} == {"manager", *FEATURES}

    @pytest.mark.parametrize("feature", sorted(FEATURES))
    def test_dropping_a_feature_removes_exactly_its_stages(self, tmp_path, feature):
        full = stage_names(build(tmp_path).manager)
        without = stage_names(build(tmp_path, **FEATURES[feature]).manager)
        assert without == [n for n in full if owner_of(n) != feature]
        assert len(without) < len(full)

    def test_stages_are_looked_up_on_the_owner_at_call_time(self, tmp_path, monkeypatch):
        """``benchmarks/e2e/layers.py`` swaps timing wrappers onto the classes
        after the system is built; a round must still go through them."""
        system = build(tmp_path)
        calls = Counter()
        for owner, method in (
            (type(system.manager.shed), "observe"),
            (type(system.manager.planner), "observe"),
            (type(system.manager.breaker), "observe"),
            (type(system.manager.auditor), "audit_round"),
            (type(system.budgeter), "allocate"),
            (type(system.manager), "step"),
        ):
            original = getattr(owner, method)

            def counting(*args, _name=f"{owner.__name__}.{method}", _orig=original, **kw):
                calls[_name] += 1
                return _orig(*args, **kw)

            monkeypatch.setattr(owner, method, counting)
        system.submit_now("a", "bt", nodes=4)
        for _ in range(40):
            system.step()
        assert calls["ClusterPowerManager.step"] == 40
        for name in ("ShedController.observe", "RecedingHorizonPlanner.observe",
                     "PowerBreaker.observe"):
            assert calls[name] == 40, name
        assert calls["CapComplianceAuditor.audit_round"] > 0
        assert calls["EvenSlowdownBudgeter.allocate"] > 0


#: A framework ``warnings`` / ``recovery_log`` line -> the bus record
#: ``AnorSystem._report`` writes with it (one line can carry two: a node
#: crash that requeues its job).
FRAMEWORK_LINES = {
    r"node \d+ crashed": "node-crash",
    r"endpoint for job \S+ crashed": "endpoint-crash",
    r"endpoint for job \S+ restarted": "endpoint-restart",
    r"restart-cancelled for job": "restart-cancelled",
    r"re-dialled its closed link": "link-redial",
    r"(and|;) requeued": "job-requeue",
    r"head node crashed": "head-crash",
    r"head node restarted warm": "head-restart",
    r"head node restarted cold": "head-restart-cold",
    r"journal tail dropped": "journal-tail-dropped",
    r"checkpoint rejected": "checkpoint-rejected",
}


def count_bus_records(system) -> Counter:
    """Tally of everything the system's bus emits from here on, incidents
    under their category (a sink of its own: the ring evicts)."""
    counts = Counter()
    system.telemetry.bus.add_sink(SimpleNamespace(
        emit=lambda r: counts.update([r["attrs"].get("category", r["name"])])
    ))
    return counts


def framework_streams(system, bus: Counter) -> tuple[Counter, Counter]:
    """(log lines, bus records) per framework category."""
    lines = Counter()
    # A rejected checkpoint is mirrored into ``warnings``: one line, twice.
    mirrored = set(system.recovery_log)
    for line in system.recovery_log + [w for w in system.warnings if w not in mirrored]:
        lines.update(c for pattern, c in FRAMEWORK_LINES.items() if re.search(pattern, line))
    records = Counter({c: bus[c] for c in FRAMEWORK_LINES.values() if bus[c]})
    return lines, records


class TestOneEmissionSite:
    def test_every_transition_incident_has_its_text_line_and_vice_versa(self, tmp_path):
        duration = 1200.0
        faults = FaultSchedule.standard_load(duration, num_nodes=16).extended([
            FeederLoss(time=0.7 * duration, magnitude=0.40, duration=120.0),
            ThermalDerate(time=0.85 * duration, magnitude=0.15, duration=120.0),
        ])
        config = AnorConfig(seed=7, **HARDENED, checkpoint_dir=str(tmp_path / "store"))
        system = build_demand_response_system(
            duration=duration, seed=7, config=config, fault_schedule=faults
        )
        bus = count_bus_records(system)
        system.run(duration)
        manager = system.manager
        assert system.head_crashes == 0  # one manager saw the whole run
        lines = Counter()
        for line in manager.events:
            text = line.split(" ", 1)[1]
            if m := re.match(r"(shed|plan|breaker) \S+ -> (\S+) ", text):
                lines[f"{m[1]}-{m[2]}"] += 1
            elif m := re.match(r"\S+: shed (preempt|kill) ", text):
                lines[f"shed-{m[1]}"] += 1
        incidents = Counter({
            category: n
            for category, n in system.telemetry.incident_counts.items()
            if category.startswith(("shed-", "plan-", "breaker-"))
        })
        assert lines == incidents
        assert any(c.startswith("shed-") for c in incidents)
        assert any(c.startswith("plan-") for c in incidents)
        # The framework's own reporter, same contract: what the fault load
        # provokes here, then every head-node category on a small system.
        lines, records = framework_streams(system, bus)
        assert lines == records
        assert {"node-crash", "endpoint-crash", "endpoint-restart", "job-requeue"} <= set(lines)

        store = tmp_path / "head"
        system = small_system(store, checkpoint_period=20.0, endpoint_restart_delay=5.0)
        bus = count_bus_records(system)

        def steps(n):
            for _ in range(n):
                system.step()

        def crash_a_node():
            job = system.cluster.running[sorted(system.cluster.running)[0]]
            system.crash_node(job.nodes[0].node_id)

        steps(60)
        crash_a_node()
        system.crash_endpoint(sorted(system.endpoints)[0])
        system._endpoint_restarts.append((system.cluster.clock.now, "ghost-job"))
        steps(10)
        system.crash_head_node()
        crash_a_node()  # while the head is down: found orphaned, then requeued
        with (store / "store" / "journal.jsonl").open("ab") as journal:
            journal.write(b'{"torn')
        steps(10)
        system.restart_head_node()
        steps(40)
        system.crash_head_node()
        checkpoint = store / "store" / "checkpoint.json"
        checkpoint.write_bytes(checkpoint.read_bytes()[:-25])
        system.restart_head_node()
        system.run(until_idle=True, max_time=6000.0)
        lines, records = framework_streams(system, bus)
        assert lines == records
        assert set(lines) == set(FRAMEWORK_LINES.values()) - {"link-redial"}


def small_system(tmp_path=None, n_jobs=6, **cfg) -> AnorSystem:
    types = ["bt", "cg", "ft", "lu", "mg", "sp"]
    schedule = Schedule([
        JobRequest(submit_time=float(i), job_id=f"j{i:02d}",
                   type_name=types[i % len(types)], nodes=4)
        for i in range(n_jobs)
    ])
    if tmp_path is not None:
        cfg["checkpoint_dir"] = str(tmp_path / "store")
    return AnorSystem(
        target_source=ConstantTarget(16 * 170.0),
        schedule=schedule,
        # A ring big enough that no record of the run is evicted.
        config=AnorConfig(
            seed=3, telemetry_enabled=True, telemetry_ring_size=1 << 20, **cfg
        ),
    )


class TestRegressions:
    def test_gauges_read_zero_after_the_last_job_leaves(self):
        """The round that finds the cluster empty used to return before
        publishing, leaving the previous round's job counts and planned draw
        on ``/metrics`` and ``anor top`` for good."""
        system = small_system(n_jobs=2)
        reg = system.telemetry.registry
        system.run(until_idle=True, max_time=6000.0)
        busy = [
            reg.get_value("anor_jobs", state=state)
            for state in ("active", "dormant", "stale", "recovering", "quarantined")
        ]
        assert sum(busy) > 0 and reg.get_value("anor_planned_draw_watts") > 0
        for _ in range(5):  # goodbyes land, the manager runs idle rounds
            system.step()
        assert system.manager.last_round is None
        for state in ("active", "dormant", "stale", "recovering", "quarantined"):
            assert reg.get_value("anor_jobs", state=state) == 0.0, state
        assert reg.get_value("anor_planned_draw_watts") == 0.0

    def test_every_requeue_path_emits_job_requeue(self, tmp_path):
        """Orphan requeues (a job that died with its node while the head was
        down) were the one requeue path without a ``job-requeue`` event."""
        system = small_system(tmp_path, checkpoint_period=20.0, recovery_timeout=25.0)
        for _ in range(100):
            system.step()
        crashed_live = sorted(system.cluster.running)[0]
        system.crash_node(system.cluster.running[crashed_live].nodes[0].node_id)
        system.crash_head_node()
        victim = sorted(system.cluster.running)[0]
        system.crash_node(system.cluster.running[victim].nodes[0].node_id)
        for _ in range(20):
            system.step()
        system.restart_head_node()
        result = system.run(until_idle=True, max_time=6000.0)
        assert victim in result.orphaned and victim in result.requeued
        assert crashed_live in result.requeued
        events = [
            r["attrs"]["job_id"]
            for r in system.telemetry.ring.records()
            if r["name"] == "job-requeue"
        ]
        assert sorted(events) == sorted(result.requeued)
