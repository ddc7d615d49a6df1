"""The manager round and the framework's tick as ordered stage lists
(DESIGN.md §4h, §4i).

What the structure promises, checked on the structure: a feature that is off
contributes no stage, the all-features round and tick run in the order
DESIGN.md documents, a stage that is absent is absent from the calendar too,
every shed / plan / breaker transition has one emission site, and the
framework enforces what rounds hand back at one seam.
"""

import functools
import re
from collections import Counter
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import pytest

from repro import telemetry
from repro.core.cluster_manager import ClusterPowerManager
from repro.core.framework import AnorConfig, AnorSystem
from repro.core.job_endpoint import JobTierEndpoint
from repro.core.targets import ConstantTarget
from repro.durable.store import DurableStore
from repro.experiments.fig9 import (
    DEFAULT_AVERAGE_POWER,
    DEFAULT_RESERVE,
    build_demand_response_system,
)
from repro.faults.events import FeederLoss, HeadNodeCrash, StuckActuator, ThermalDerate
from repro.faults.injector import FaultInjector
from repro.faults.schedule import FaultSchedule
from repro.geopm.agent import JobAgentGroup
from repro.sched.fcfs import FcfsScheduler
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
    "monitors": dict(monitors=()),
}

JOURNAL_STAGES = {"manager._journal_caps"}
TELEMETRY_STAGES = {
    "telemetry.open_round", "telemetry.trace_target", "telemetry.open_budget",
    "telemetry.close_budget", "telemetry.trace_caps", "telemetry.close_round",
}


#: The same for the tick: override -> the framework stage that must go
#: (``faults`` drops the fault schedule, which is not a config field).
TICK_FEATURES = {
    "_inject_faults": dict(faults=None),
    "_checkpoint": dict(checkpoint_dir=None),
    "_reconnect_closed": dict(lease_ttl=None, reliable_messaging=False),
}
HEAD_STAGES = ["_intake", "_restart_endpoints", "_start_ready", "_manager_round"]
COMPUTE_STAGES = ["_step_endpoints", "_step_agents"]


def build(tmp_path, faults=(), monitors=(lambda rnd: None,), **overrides) -> AnorSystem:
    """The hardened system, observed; ``faults=None`` builds it without an
    injector."""
    cfg = dict(HARDENED, checkpoint_dir=str(tmp_path / "store"))
    cfg.update(overrides)
    return AnorSystem(
        config=AnorConfig(**cfg),
        fault_schedule=None if faults is None else FaultSchedule(faults),
        monitors=monitors,
    )


def tick_names(system: AnorSystem) -> list[str]:
    entries = system._fault_tick + system._tick
    assert all(stage.__self__ is system for stage, _ in entries)
    return [stage.__name__ for stage, _ in entries]


def registered(system: AnorSystem) -> tuple[set[int], list[float]]:
    """What ``_build_calendar`` registers: gate identities and instants."""
    cal = system._build_calendar()
    return {id(g) for g in cal._gates}, sorted(cal._instants)


def with_a_closed_link(system: AnorSystem) -> AnorSystem:
    """One running job whose link the manager closed, one restart pending and
    one request still to arrive: every ``wakes`` has something to yield."""
    system.submit_now("a", "bt", nodes=4)
    for _ in range(3):
        system.step()
    for link in system.manager._links:
        link.close("test")
    assert system.endpoints["a"].link.closed
    system._endpoint_restarts.append((1e6, "a"))
    system._pending.append(JobRequest(submit_time=2e6, job_id="z", type_name="bt", nodes=4))
    return system


def stage_names(manager: ClusterPowerManager) -> list[str]:
    """``owner.stage`` for every stage of a round with jobs, in run order
    (the budgeting stages spliced in where ``_budget`` runs them)."""
    owners = {
        id(manager): "manager", id(manager.shed): "shed",
        id(manager.planner): "planner", id(manager.breaker): "breaker",
        id(manager.auditor): "auditor", id(manager.round_telemetry): "telemetry",
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
    if name == "manager._observe":
        return "monitors"
    return name.split(".")[0]


def documented_order(section: str = "4h", stage: str = r"[a-z]+\.[a-z_]+") -> list[str]:
    """First column of DESIGN.md's manager-round (or, §4i, tick) table."""
    design = (Path(__file__).parent.parent / "DESIGN.md").read_text()
    table = design.split(f"\n## {section}.", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"^\| `({stage})` ", table, flags=re.M)


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
        after the system is built; a round, and a tick, must still go through
        them (a tick that bound ``self.faults.tick`` when its list was built
        would count ``faults.calls == 0``)."""
        system = build(tmp_path)
        calls = Counter()
        for owner, method in (
            (type(system.manager.shed), "observe"),
            (type(system.manager.planner), "observe"),
            (type(system.manager.breaker), "observe"),
            (type(system.manager.auditor), "audit_round"),
            (type(system.budgeter), "allocate"),
            (type(system.manager), "step"),
            (FaultInjector, "tick"),
            (FcfsScheduler, "select"),
            (JobTierEndpoint, "step"),
            (JobAgentGroup, "step"),
            (DurableStore, "save_checkpoint"),
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
                     "PowerBreaker.observe", "FaultInjector.tick"):
            assert calls[name] == 40, name
        assert calls["CapComplianceAuditor.audit_round"] > 0
        assert calls["EvenSlowdownBudgeter.allocate"] > 0
        assert calls["FcfsScheduler.select"] == 1  # the one tick with a queue
        assert calls["JobTierEndpoint.step"] == calls["JobAgentGroup.step"] == 40
        assert calls["DurableStore.save_checkpoint"] == 2  # t = 1 and 31

    # ------------------------------------------------ the framework's tick

    def test_default_tick_holds_only_the_always_on_stages(self):
        system = AnorSystem(config=AnorConfig())
        assert tick_names(system) == HEAD_STAGES + COMPUTE_STAGES

    def test_hardened_tick_runs_in_the_documented_order(self, tmp_path):
        names = tick_names(build(tmp_path))
        assert names == documented_order("4i", "_[a-z_]+")
        assert set(names) == {*HEAD_STAGES, *COMPUTE_STAGES, *TICK_FEATURES}

    @pytest.mark.parametrize("stage", sorted(TICK_FEATURES))
    def test_dropping_a_feature_removes_its_stage_and_its_calendar_source(
        self, tmp_path, stage
    ):
        full = with_a_closed_link(build(tmp_path))
        less = with_a_closed_link(build(tmp_path, **TICK_FEATURES[stage]))
        assert tick_names(less) == [n for n in tick_names(full) if n != stage]
        (gates, instants), (fewer_gates, fewer_instants) = registered(full), registered(less)
        gone = {
            "_inject_faults": [full.faults.next_due],
            "_checkpoint": [],
            "_reconnect_closed": [full._reconnect_at.get("a", 0.0)],
        }[stage]
        assert sorted(fewer_instants + gone) == instants
        assert len(gates) - len(fewer_gates) == (stage == "_checkpoint")
        assert (id(less._checkpoint_gate) in fewer_gates) == (stage != "_checkpoint")

    @pytest.mark.parametrize("checkpointing", [True, False], ids=["warm", "cold"])
    def test_head_crash_leaves_the_compute_stages_and_restart_restores_the_list(
        self, tmp_path, checkpointing
    ):
        overrides = {} if checkpointing else dict(checkpoint_dir=None)
        system = with_a_closed_link(build(tmp_path, **overrides))
        boot, boot_gates = tick_names(system), registered(system)[0]
        system.crash_head_node()
        assert tick_names(system) == ["_inject_faults"] + COMPUTE_STAGES
        gates, instants = registered(system)
        assert gates == {id(system._endpoint_gate), id(system._agent_gate)}
        assert instants == [system.faults.next_due]
        for _ in range(5):
            system.step()
        system.restart_head_node()
        assert tick_names(system) == boot
        # No source holds a replaced gate: a cold restart re-anchors in place.
        assert registered(system)[0] == boot_gates
        assert system.recovery_log[-1].split("restarted ")[1].startswith(
            "warm" if checkpointing else "cold"
        )

    def test_injected_head_crash_and_restart_take_effect_within_their_tick(
        self, tmp_path, monkeypatch
    ):
        """The injector runs before the list is read: a crash fired at tick t
        runs no head stage at t, a restart fired at t runs them all at t."""
        ran: dict[float, list[str]] = {}
        for name in documented_order("4i", "_[a-z_]+"):
            original = getattr(AnorSystem, name)

            @functools.wraps(original)
            def recording(self, now, _name=name, _orig=original):
                ran.setdefault(now, []).append(_name)
                return _orig(self, now)

            monkeypatch.setattr(AnorSystem, name, recording)
        system = build(tmp_path, faults=[HeadNodeCrash(time=5.0, down_for=4.0)])
        boot = tick_names(system)
        for _ in range(12):
            system.step()
        down = ["_inject_faults"] + COMPUTE_STAGES
        assert [ran[float(t)] == boot for t in range(1, 13)] == [t < 5 or t >= 9 for t in range(1, 13)]
        assert all(ran[float(t)] == down for t in range(5, 9))

    @pytest.mark.parametrize("head_up", [True, False], ids=["head-up", "head-down"])
    def test_calendar_registers_what_the_per_tick_checks_read(self, tmp_path, head_up):
        """The oracle is written guard by guard, from what each per-tick
        check reads, not from the list's own ``wakes``."""
        system = with_a_closed_link(build(tmp_path))
        if not head_up:
            system.crash_head_node()
        gates = [system._endpoint_gate, system._agent_gate]
        instants = [system.faults.next_due]
        if head_up:
            gates += [system._manager_gate, system._checkpoint_gate]
            instants += [2e6, 1e6, system._reconnect_at.get("a", 0.0)]
            assert system.manager.next_plan_instant() is None
        assert registered(system) == ({id(g) for g in gates}, sorted(instants))


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
    r"\(not requeued\)|killed by power shed": "job-drop",
    r"awaiting endpoint watchdog": "orphan-running",
    r"completed during the head-node outage": "orphan-completed",
    r"report skipped": "report-skipped",
    r"head node crashed": "head-crash",
    r"head node restarted warm": "head-restart",
    r"head node restarted cold": "head-restart-cold",
    r"journal tail dropped": "journal-tail-dropped",
    r"checkpoint rejected": "checkpoint-rejected",
    r"checkpoint slot refused": "checkpoint-slot-refused",
    r"head-local \S+ state dropped": "head-state-reset",
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
    def test_every_transition_incident_has_its_text_line_and_vice_versa(
        self, tmp_path, monkeypatch
    ):
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
        monkeypatch.setattr("repro.core.framework.ENDPOINT_RESTART_DELAY", 5.0)
        monkeypatch.setattr("repro.core.cluster_manager.RECOVERY_TIMEOUT", 4.0)
        system = small_system(
            store, checkpoint_period=20.0, output_dir=str(tmp_path / "reports"),
        )
        bus = count_bus_records(system)
        cluster = system.cluster

        def steps(n):
            for _ in range(n):
                system.step()

        def crash_node_of(job_id):
            system.crash_node(cluster.running[job_id].nodes[0].node_id)

        steps(60)
        crash_node_of(sorted(cluster.running)[0])
        system.crash_endpoint(sorted(system.endpoints)[0])
        system._endpoint_restarts.append((cluster.clock.now, "ghost-job"))
        steps(10)
        system.crash_head_node()
        crash_node_of(sorted(cluster.running)[0])  # found orphaned, then requeued
        with (store / "store" / "journal.jsonl").open("ab") as journal:
            journal.write(b'{"torn')
        done = len(cluster.completed)
        while len(cluster.completed) == done:  # found completed, after the restart
            steps(1)
        # Its watchdog restart lands after the recovery window closes: found
        # silent but still running.
        system.crash_endpoint(sorted(system.endpoints)[0])
        system.restart_head_node()
        steps(40)
        victim = sorted(cluster.running)[0]
        while victim in cluster.running:  # crashed until it is out of attempts
            crash_node_of(victim)
            while any(req.job_id == victim for req in system._queue):
                steps(1)
        cluster.kill_job(sorted(cluster.running)[0])  # gone, with no totals to report
        steps(1)
        system.crash_head_node()
        checkpoint = DurableStore(store / "store").newest_slot
        with checkpoint.open("r+b") as slot:  # tear its payload: the crc fails
            slot.seek(len(slot.readline()) + 10)
            slot.write(b"\0" * 25)
        system.restart_head_node()
        system.run(until_idle=True, max_time=6000.0)
        lines, records = framework_streams(system, bus)
        assert lines == records
        # No stage owner runs here, and no slot is torn mid-write: those two
        # categories have their own tests (TestCrashReportsDroppedHeadState,
        # and the torn-slot restart in tests/test_head_recovery.py).
        assert set(lines) == set(FRAMEWORK_LINES.values()) - {
            "link-redial", "checkpoint-slot-refused", "head-state-reset"
        }


class TestCrashReportsDroppedHeadState:
    """A crash drops what the round-stage owners hold and no checkpoint
    carries: each engaged owner leaves one ``head-state-reset`` incident
    and its line."""

    #: owner -> (config, faults, target W, engaged at the crash)
    CASES = {
        # The feed comes back at t=90; the ladder is normal again at t=99,
        # its ceiling still ramping 100 W a round toward the feed.
        "shed": (
            dict(shed_enabled=True),
            [FeederLoss(time=60.0, magnitude=0.45, duration=30.0)],
            16 * 170.0,
            lambda m: m.shed.severity == "normal" and m.shed.ladder.ramping,
        ),
        "audit": (
            dict(audit_enabled=True),
            [StuckActuator(time=60.0)],
            16 * 170.0,
            lambda m: "quarantined" in {m.auditor.state(j) for j in m.jobs},
        ),
        # A target below what busy nodes draw at the floor cap.
        "breaker": (dict(breaker_margin=0.2), [], 16 * 100.0, lambda m: m.breaker.tripped),
    }

    @pytest.mark.parametrize("owner", sorted(CASES))
    def test_a_crash_reports_the_engaged_owner_once(self, owner):
        cfg, faults, target, engaged = self.CASES[owner]
        system = small_system(faults=faults, target=target, **cfg)
        bus = count_bus_records(system)
        for _ in range(300):
            system.step()
            if engaged(system.manager):
                break
        assert engaged(system.manager)
        system.crash_head_node()
        lines, records = framework_streams(system, bus)
        assert lines == records
        assert records["head-state-reset"] == 1
        dropped = [line for line in system.recovery_log if "state dropped" in line]
        assert len(dropped) == 1 and f"head-local {owner} state" in dropped[0]


def small_system(
    tmp_path=None, n_jobs=6, faults=None, target=16 * 170.0, **cfg
) -> AnorSystem:
    types = ["bt", "cg", "ft", "lu", "mg", "sp"]
    schedule = Schedule([
        JobRequest(submit_time=float(i), job_id=f"j{i:02d}",
                   type_name=types[i % len(types)], nodes=4)
        for i in range(n_jobs)
    ])
    if tmp_path is not None:
        cfg["checkpoint_dir"] = str(tmp_path / "store")
    # A ring big enough that no record of the run is evicted.
    with mock.patch.object(telemetry, "RING_SIZE", 1 << 20):
        return AnorSystem(
            target_source=ConstantTarget(target),
            schedule=schedule,
            config=AnorConfig(seed=3, telemetry_enabled=True, **cfg),
            fault_schedule=None if faults is None else FaultSchedule(faults),
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

    def test_every_requeue_path_emits_job_requeue(self, tmp_path, monkeypatch):
        """Orphan requeues (a job that died with its node while the head was
        down) were the one requeue path without a ``job-requeue`` event."""
        monkeypatch.setattr("repro.core.cluster_manager.RECOVERY_TIMEOUT", 25.0)
        system = small_system(tmp_path, checkpoint_period=20.0)
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
