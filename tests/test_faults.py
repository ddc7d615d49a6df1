"""Tests for the fault-injection subsystem (events, schedules, injector)."""

import ast
import dataclasses
import math
from pathlib import Path

import pytest

from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.cluster_manager import DEAD_JOB_TIMEOUT
from repro.core.framework import (
    AnorConfig,
    AnorSystem,
    LinkConditions,
    precharacterized_models,
)
from repro.core.targets import ConstantTarget
from repro.geopm.agent import AgentPolicy, AgentSample
from repro.geopm.endpoint import Endpoint
from repro.faults import (
    ByzantineModel,
    CorruptStatus,
    DemandResponseEmergency,
    EndpointCrash,
    FaultSchedule,
    FeederLoss,
    HeadNodeCrash,
    LinkDegradation,
    MeterDrift,
    MeterOutage,
    NetworkPartition,
    NodeCrash,
    StuckActuator,
    TargetOutage,
    ThermalDerate,
)
from repro.modeling.classifier import JobClassifier


def make_system(schedule=None, *, num_nodes=4, seed=0, target=840.0, monitors=(), **cfg):
    return AnorSystem(
        budgeter=EvenSlowdownBudgeter(),
        target_source=ConstantTarget(target),
        classifier=JobClassifier(precharacterized_models()),
        config=AnorConfig(num_nodes=num_nodes, seed=seed, **cfg),
        fault_schedule=schedule,
        monitors=monitors,
    )


def counted(system, metric):
    """A decision count: the registry's, so the system needs telemetry on."""
    return system.telemetry.registry.get_value(metric)


def step_to(system, at):
    while system.cluster.clock.now < at:
        system.step()


def restart_head(system):
    """Crash and restart the head: a fresh manager for the injector to
    re-hook, and every live endpoint re-dials."""
    system.crash_head_node()
    system.step()
    system.restart_head_node()


def conditions(link):
    """The distinct ``(loss, latency, partitioned)`` of a link's two channels."""
    return {
        (channel.drop_probability, channel.latency, channel.partitioned)
        for channel in (link.up, link.down)
    }


class TestEvents:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            NodeCrash(time=-1.0)

    def test_nan_time_rejected(self):
        with pytest.raises(ValueError):
            MeterOutage(time=math.nan)

    def test_bad_drop_probability_rejected(self):
        with pytest.raises(ValueError):
            LinkDegradation(time=0.0, drop_probability=1.0)

    def test_nan_extra_latency_rejected(self):
        with pytest.raises(ValueError, match="extra_latency"):
            LinkDegradation(time=0.0, extra_latency=math.nan)

    def test_bad_corruption_kind_rejected(self):
        with pytest.raises(ValueError):
            CorruptStatus(time=0.0, kind="gamma-ray")

    def test_nonpositive_duration_rejected(self):
        with pytest.raises(ValueError):
            MeterOutage(time=0.0, duration=0.0)

    @pytest.mark.parametrize("event, field", [
        (NodeCrash, "down_for"),
        (HeadNodeCrash, "down_for"),
        (LinkDegradation, "duration"),
        (NetworkPartition, "duration"),
        (MeterOutage, "duration"),
        (TargetOutage, "duration"),
        (ByzantineModel, "duration"),
        (StuckActuator, "duration"),
        (MeterDrift, "duration"),
        (FeederLoss, "duration"),
        (ThermalDerate, "duration"),
        (DemandResponseEmergency, "duration"),
    ])
    def test_nan_window_rejected(self, event, field):
        """A NaN window never closes, so the injector would never turn
        quiescent."""
        with pytest.raises(ValueError, match=f"{field} must be positive"):
            event(time=0.0, **{field: math.nan})

    def test_events_are_frozen(self):
        event = NodeCrash(time=5.0, node_id=1)
        with pytest.raises(AttributeError):
            event.time = 9.0


class TestSchedule:
    def test_events_sorted_by_time(self):
        sched = FaultSchedule(
            [MeterOutage(time=50.0), NodeCrash(time=10.0), EndpointCrash(time=30.0)]
        )
        assert [e.time for e in sched] == [10.0, 30.0, 50.0]

    def test_equality_and_extended(self):
        a = FaultSchedule([NodeCrash(time=1.0)])
        b = FaultSchedule([NodeCrash(time=1.0)])
        assert a == b
        c = a.extended([MeterOutage(time=2.0)])
        assert len(c) == 2 and len(a) == 1

    def test_non_event_rejected(self):
        with pytest.raises(TypeError):
            FaultSchedule(["node crash at noon"])

    def test_standard_load_contents(self):
        sched = FaultSchedule.standard_load(3600.0)
        assert len(sched.events_of(NodeCrash)) == 1
        assert len(sched.events_of(EndpointCrash)) == 1
        assert len(sched.events_of(LinkDegradation)) == 1
        assert len(sched.events_of(MeterOutage)) == 1
        assert len(sched.events_of(CorruptStatus)) == 1
        link = sched.events_of(LinkDegradation)[0]
        assert link.drop_probability == pytest.approx(0.05)
        assert link.duration == pytest.approx(3600.0)

    def test_random_is_deterministic_per_seed(self):
        kwargs = dict(
            num_nodes=8,
            rates={
                NodeCrash(time=0.0): 1 / 300.0,
                EndpointCrash(time=0.0): 1 / 300.0,
                LinkDegradation(time=0.0, drop_probability=0.2): 1 / 200.0,
                MeterOutage(time=0.0): 1 / 500.0,
                CorruptStatus(time=0.0): 1 / 250.0,
            },
        )
        a = FaultSchedule.random(3600.0, seed=7, **kwargs)
        b = FaultSchedule.random(3600.0, seed=7, **kwargs)
        c = FaultSchedule.random(3600.0, seed=8, **kwargs)
        assert a == b
        assert a != c

    def test_describe_one_line_per_event(self):
        sched = FaultSchedule.standard_load(600.0)
        assert len(sched.describe().splitlines()) == len(sched)


class TestInjectorMeterAndTarget:
    def test_meter_outage_recorded_and_recovers(self):
        sched = FaultSchedule([MeterOutage(time=10.0, duration=20.0)])
        seen = []
        system = make_system(sched, monitors=[seen.append], telemetry_enabled=True)
        system.submit_now("bt-0", "bt")
        for _ in range(60):
            system.step()
        assert counted(system, "anor_meter_faults_total") > 0
        # Samples resume after the outage window closes.
        assert any(rnd.time > 35.0 and math.isfinite(rnd.measured) for rnd in seen)
        log = system.faults.render()
        assert "meter-outage start" in log and "meter-outage end" in log

    def test_target_outage_served_by_hold_last_good(self):
        sched = FaultSchedule([TargetOutage(time=10.0, duration=20.0)])
        system = make_system(sched)
        system.submit_now("bt-0", "bt")
        for _ in range(60):
            system.step()
        hold = system.manager.target_hold
        assert hold.degraded_reads > 0
        # Caps kept flowing throughout: the held target budgets normally.
        assert system.endpoints["bt-0"].current_cap > 0


class TestInjectorCorruptStatus:
    @pytest.mark.parametrize("kind", ["nan", "inf", "nonphysical"])
    def test_poisoned_model_never_reaches_budgeter(self, kind):
        sched = FaultSchedule([CorruptStatus(time=5.0, job_id="bt-0", kind=kind)])
        system = make_system(sched, telemetry_enabled=True)
        system.submit_now("bt-0", "bt")
        for _ in range(10):
            system.step()
        manager = system.manager
        assert counted(system, "anor_models_rejected_total") >= 1
        record = manager.jobs["bt-0"]
        model = record.active_model
        assert model.is_monotone_decreasing()
        assert math.isfinite(model.t_min)

    def test_nan_power_status_rejected_but_counts_as_heartbeat(self):
        sched = FaultSchedule([CorruptStatus(time=5.0, job_id="bt-0", kind="nan-power")])
        system = make_system(sched, telemetry_enabled=True)
        system.submit_now("bt-0", "bt")
        for _ in range(10):
            system.step()
        assert counted(system, "anor_statuses_rejected_total") >= 1
        assert "bt-0" in system.manager.jobs  # not evicted: arrival = alive


class TestInjectorLink:
    def test_scoped_degradation_applies_and_restores(self):
        sched = FaultSchedule(
            [
                LinkDegradation(
                    time=5.0,
                    duration=10.0,
                    drop_probability=0.4,
                    extra_latency=0.5,
                    job_id="bt-0",
                )
            ]
        )
        system = make_system(sched)
        system.submit_now("bt-0", "bt")
        for _ in range(8):
            system.step()
        link = system.endpoints["bt-0"].link
        assert link.up.drop_probability == pytest.approx(0.4)
        assert link.up.latency == pytest.approx(0.5)
        for _ in range(12):
            system.step()
        assert link.up.drop_probability == pytest.approx(0.0)
        assert link.up.latency == pytest.approx(0.0)

    def test_global_degradation_covers_links_created_mid_window(self):
        sched = FaultSchedule(
            [LinkDegradation(time=1.0, duration=50.0, drop_probability=0.3)]
        )
        system = make_system(sched)
        system.submit_now("bt-0", "bt")
        for _ in range(5):
            system.step()
        # A job launched inside the window inherits the degraded conditions.
        system.submit_now("sp-1", "sp")
        for _ in range(5):
            system.step()
        assert system.endpoints["sp-1"].link.up.drop_probability == pytest.approx(0.3)
        for _ in range(55):
            system.step()
        # Window closed: conditions restored for any future link.
        assert system.link_conditions == LinkConditions(0.0)

    def test_cluster_wide_windows_live_on_the_system_not_the_config(self):
        """A link dialled inside a cluster-wide window is born degraded or
        partitioned and one dialled after it is clean; the record outlives a
        head-node restart mid-window; the user's config is never written."""
        sched = FaultSchedule([
            LinkDegradation(
                time=5.0, duration=40.0, drop_probability=0.3, extra_latency=0.5
            ),
            NetworkPartition(time=60.0, duration=40.0),
        ])
        system = make_system(sched, num_nodes=6)
        before = dataclasses.asdict(system.config)

        def dial(at, job_id):
            """Submit at ``at``, restart the head (every live endpoint
            re-dials), and hand back both kinds of fresh link."""
            step_to(system, at)
            system.submit_now(job_id, job_id.split("-")[0])
            system.step()
            old = system.endpoints["bt-0"].link
            restart_head(system)
            assert system.endpoints["bt-0"].link is not old
            return system.endpoints[job_id].link, system.endpoints["bt-0"].link

        system.submit_now("bt-0", "bt")
        for link in dial(10.0, "lu-1"):  # inside the degradation window
            assert conditions(link) == {(0.3, 0.5, False)}
        for link in dial(50.0, "cg-2"):  # between the windows
            assert conditions(link) == {(0.0, 0.0, False)}
        for link in dial(65.0, "mg-3"):  # inside the partition window
            assert conditions(link) == {(0.0, 0.0, True)}
        for link in dial(105.0, "is-4"):  # after both
            assert conditions(link) == {(0.0, 0.0, False)}
        assert system.link_conditions == LinkConditions(0.0)
        assert dataclasses.asdict(system.config) == before

    @pytest.mark.parametrize("restart", [False, True])
    def test_overlapping_cluster_wide_bursts_compose(self, restart):
        """Degraded through the union of the two windows — the latest burst's
        loss, the extra latencies added — and healthy after the second close,
        with a head restart inside the overlap or without."""
        sched = FaultSchedule([
            LinkDegradation(
                time=5.0, duration=20.0, drop_probability=0.2, extra_latency=0.25
            ),
            LinkDegradation(
                time=15.0, duration=20.0, drop_probability=0.3, extra_latency=0.5
            ),
        ])
        system = make_system(sched, num_nodes=6)
        system.submit_now("bt-0", "bt")

        def live():
            return {c for e in system.endpoints.values() for c in conditions(e.link)}

        step_to(system, 10.0)
        assert live() == {(0.2, 0.25, False)}
        step_to(system, 20.0)
        if restart:
            restart_head(system)
        assert live() == {(0.3, 0.75, False)}
        assert system.link_conditions == LinkConditions(0.3, 0.75, 0.75)
        step_to(system, 28.0)  # the first window closed at 25: the second stands
        system.submit_now("sp-1", "sp")
        system.step()
        assert conditions(system.endpoints["sp-1"].link) == {(0.3, 0.5, False)}
        assert live() == {(0.3, 0.5, False)}
        step_to(system, 40.0)
        assert live() == {(0.0, 0.0, False)}
        assert system.link_conditions == LinkConditions(0.0)
        assert system.faults.quiescent

    def test_job_scoped_window_outlives_the_cluster_wide_one_around_it(self):
        """Opened on the link a head restart inside the cluster-wide window
        dialled; the job's link stays degraded when that window closes and
        ends healthy, the other links heal with the cluster."""
        sched = FaultSchedule([
            LinkDegradation(time=5.0, duration=15.0, drop_probability=0.3),
            LinkDegradation(
                time=12.0, duration=20.0, drop_probability=0.4, job_id="bt-0"
            ),
        ])
        system = make_system(sched, num_nodes=6)
        system.submit_now("bt-0", "bt")
        system.submit_now("sp-1", "sp")
        step_to(system, 8.0)
        restart_head(system)
        step_to(system, 15.0)
        assert conditions(system.endpoints["bt-0"].link) == {(0.4, 0.0, False)}
        assert conditions(system.endpoints["sp-1"].link) == {(0.3, 0.0, False)}
        step_to(system, 25.0)  # cluster-wide window closed at 20
        assert conditions(system.endpoints["bt-0"].link) == {(0.4, 0.0, False)}
        assert conditions(system.endpoints["sp-1"].link) == {(0.0, 0.0, False)}
        assert system.link_conditions == LinkConditions(0.0)
        step_to(system, 35.0)
        assert conditions(system.endpoints["bt-0"].link) == {(0.0, 0.0, False)}

    @pytest.mark.parametrize(
        "fault, dark",
        [
            (MeterOutage, lambda s: s.feed_conditions.meter_dark),
            (TargetOutage, lambda s: s.feed_conditions.target_down),
            (
                NetworkPartition,
                lambda s: s.link_conditions.partitioned
                and all(p for e in s.endpoints.values() for *_, p in conditions(e.link)),
            ),
        ],
        ids=["meter", "target", "partition"],
    )
    def test_overlapping_outages_stay_dark_until_the_last_closes(self, fault, dark):
        sched = FaultSchedule([
            fault(time=5.0, duration=20.0), fault(time=15.0, duration=20.0)
        ])
        system = make_system(sched)
        system.submit_now("bt-0", "bt")
        dark_at = []
        while system.cluster.clock.now < 45.0:
            crash = system.cluster.clock.now == 20.0  # inside the overlap
            if crash:
                system.crash_head_node()
            system.step()
            if crash:
                system.restart_head_node()
            if dark(system):
                dark_at.append(system.cluster.clock.now)
        # The union [5, 35), every tick of it, and nothing after.
        assert dark_at == [float(t) for t in range(5, 35)]
        assert system.faults.quiescent


class TestInjectorCrashes:
    def test_node_crash_requeues_and_completes(self):
        sched = FaultSchedule([NodeCrash(time=30.0, node_id=0, down_for=60.0)])
        system = make_system(sched, num_nodes=2)
        system.submit_now("bt-0", "bt")
        result = system.run(until_idle=True, max_time=7200.0)
        assert result.requeued == ["bt-0"]
        assert [t.job_id for t in result.completed] == ["bt-0"]
        assert (30.0, "bt-0") in system.cluster.killed
        assert "node-crash node=0 killed=bt-0" in system.faults.render()

    def test_endpoint_crash_restarts_and_manager_recovers(self, monkeypatch):
        monkeypatch.setattr("repro.core.framework.ENDPOINT_RESTART_DELAY", 10.0)
        sched = FaultSchedule([EndpointCrash(time=30.0, job_id="bt-0")])
        system = make_system(sched, num_nodes=2, telemetry_enabled=True)
        system.submit_now("bt-0", "bt")
        result = system.run(until_idle=True, max_time=7200.0)
        assert [t.job_id for t in result.completed] == ["bt-0"]
        assert any("restarted" in w for w in result.warnings)
        # The fresh hello replaced the dead link before the dead-job timeout.
        assert any("reconnected" in e for e in system.manager.events)
        assert counted(system, "anor_jobs_evicted_total") == 0

    def test_endpoint_crash_without_watchdog_leads_to_eviction(self, monkeypatch):
        """A watchdog slower than the dead-job timeout has not restarted the
        endpoint by the time the manager gives up on the silent job."""
        monkeypatch.setattr(
            "repro.core.framework.ENDPOINT_RESTART_DELAY", DEAD_JOB_TIMEOUT + 20.0
        )
        sched = FaultSchedule([EndpointCrash(time=30.0, job_id="bt-0")])
        system = make_system(sched, num_nodes=2, telemetry_enabled=True)
        system.submit_now("bt-0", "bt")
        for _ in range(int(30.0 + DEAD_JOB_TIMEOUT) + 10):
            system.step()
        assert "bt-0" not in system.manager.jobs
        assert counted(system, "anor_jobs_evicted_total") == 1


class TestDeterminism:
    def _run(self, seed):
        sched = FaultSchedule.random(
            240.0,
            seed=99,
            num_nodes=4,
            rates={
                NodeCrash(time=0.0): 1 / 120.0,
                EndpointCrash(time=0.0): 1 / 120.0,
                LinkDegradation(time=0.0, drop_probability=0.2): 1 / 100.0,
                MeterOutage(time=0.0): 1 / 150.0,
                CorruptStatus(time=0.0): 1 / 100.0,
            },
        )
        system = make_system(sched, seed=seed)
        system.submit_now("bt-0", "bt")
        system.submit_now("sp-1", "sp")
        result = system.run(240.0)
        return system, result

    def test_same_seed_same_fault_log_and_trace(self):
        sys_a, res_a = self._run(5)
        sys_b, res_b = self._run(5)
        assert sys_a.faults.log_lines() == sys_b.faults.log_lines()
        assert res_a.power_trace.tobytes() == res_b.power_trace.tobytes()
        assert res_a.warnings == res_b.warnings


def wedged(geopm) -> bool:
    """A probe write is lost: the actuator is stuck."""
    before = geopm.policies_written
    geopm.write_policy(AgentPolicy(power_cap_node=150.0))
    return geopm.policies_written == before


def drifting(geopm) -> bool:
    """The power the endpoint reads is not the power its agents published."""
    return geopm.read_sample().power != AgentSample.from_cells(geopm._sample).power


def forging(endpoint) -> bool:
    """The endpoint shares fields its own fit did not produce."""
    return endpoint._model_fields() != endpoint._evaluate_model_fields()


class TestRogueFaultLifetimes:
    """Where each rogue fault lives decides what outlives it: the stuck
    actuator and the meter drift are the platform's (the running job's
    GEOPM endpoint), the byzantine model is the endpoint process's."""

    def test_stuck_and_drift_survive_an_endpoint_restart(self, monkeypatch):
        monkeypatch.setattr("repro.core.framework.ENDPOINT_RESTART_DELAY", 10.0)
        sched = FaultSchedule([
            StuckActuator(time=20.0, job_id="bt-0"),
            MeterDrift(time=20.0, job_id="bt-0", factor_rate=0.01),
            EndpointCrash(time=30.0, job_id="bt-0"),
        ])
        system = make_system(sched, num_nodes=4)
        system.submit_now("bt-0", "bt")
        step_to(system, 25.0)
        crashed = system.endpoints["bt-0"]
        step_to(system, 45.0)
        restarted = system.endpoints["bt-0"]
        assert restarted is not crashed and restarted.geopm is crashed.geopm
        assert drifting(restarted.geopm)
        assert wedged(restarted.geopm)

    def test_stuck_and_drift_stay_with_the_nodes_a_requeue_leaves(self):
        sched = FaultSchedule([
            StuckActuator(time=20.0, job_id="bt-0"),
            MeterDrift(time=20.0, job_id="bt-0", factor_rate=0.01),
            NodeCrash(time=40.0, node_id=0, down_for=1000.0),
        ])
        system = make_system(sched, num_nodes=4)
        system.submit_now("bt-0", "bt")
        step_to(system, 30.0)
        old = system.endpoints["bt-0"].geopm
        step_to(system, 60.0)
        assert system.requeued == ["bt-0"]
        new = system.endpoints["bt-0"].geopm
        assert new is not old
        assert drifting(old) and not drifting(new)
        assert wedged(old) and not wedged(new)

    def test_byzantine_forgery_dies_with_the_process_not_the_mark(self, monkeypatch):
        """A restart clears the lie, but until the heal the job is still a
        victim and auto-targeted rogue faults still pass it over."""
        monkeypatch.setattr("repro.core.framework.ENDPOINT_RESTART_DELAY", 10.0)
        sched = FaultSchedule([
            ByzantineModel(time=20.0, job_id="bt-0", duration=60.0),
            EndpointCrash(time=30.0, job_id="bt-0"),
            ByzantineModel(time=50.0),
            ByzantineModel(time=90.0, duration=10.0),
        ])
        system = make_system(sched, num_nodes=4)
        system.submit_now("bt-0", "bt")
        step_to(system, 25.0)
        assert forging(system.endpoints["bt-0"])
        step_to(system, 45.0)
        assert not forging(system.endpoints["bt-0"])
        step_to(system, 95.0)
        assert system.faults.victims["bt-0"] == ("byzantine-model", 20.0, 80.0)
        log = system.faults.render()
        assert "t=      50.0 byzantine-model skipped (no fresh endpoint)" in log
        assert "t=      90.0 byzantine-model job=bt-0 mode=flat" in log
        assert forging(system.endpoints["bt-0"])


class TestRogueFaultHeals:
    def test_stuck_heal_reasserts_the_current_cap(self, monkeypatch):
        writes = []  # (job, policy) of every write that reached the cells
        write_policy = Endpoint.write_policy

        def recording(self, policy):
            before = self.policies_written
            write_policy(self, policy)
            if self.policies_written > before:
                writes.append((self.job_id, policy))

        monkeypatch.setattr(Endpoint, "write_policy", recording)
        sched = FaultSchedule([StuckActuator(time=20.0, job_id="bt-0", duration=30.0)])
        system = make_system(sched, num_nodes=4)
        system.submit_now("bt-0", "bt")
        step_to(system, 49.0)
        cap = system.endpoints["bt-0"].current_cap
        assert not [p for job, p in writes if job == "bt-0" and p.issued_at > 20.0]
        step_to(system, 50.0)
        healed = [p for job, p in writes if job == "bt-0" and p.issued_at > 20.0]
        assert healed[0] == AgentPolicy(power_cap_node=cap, issued_at=50.0)
        assert not wedged(system.endpoints["bt-0"].geopm)

    def test_drift_heal_reads_the_published_power(self):
        sched = FaultSchedule([
            MeterDrift(time=20.0, job_id="bt-0", factor_rate=0.01, duration=30.0)
        ])
        system = make_system(sched, num_nodes=4)
        system.submit_now("bt-0", "bt")
        step_to(system, 40.0)
        assert drifting(system.endpoints["bt-0"].geopm)
        step_to(system, 60.0)
        assert not drifting(system.endpoints["bt-0"].geopm)

    def test_byzantine_heal_restores_the_fits_own_fields(self):
        sched = FaultSchedule([ByzantineModel(time=20.0, job_id="bt-0", duration=30.0)])
        system = make_system(sched, num_nodes=4)
        system.submit_now("bt-0", "bt")
        step_to(system, 40.0)
        assert system.endpoints["bt-0"]._model_fields()["model_r2"] == 0.97
        step_to(system, 60.0)
        assert not forging(system.endpoints["bt-0"])


def test_faults_patch_no_code_onto_objects():
    """A fault is state the faulted object reads, never a function put on
    an instance: nothing under ``faults/`` assigns a lambda or a function to
    an attribute (``setattr`` included) or touches ``__dict__``."""
    found = []
    for path in sorted((Path(__file__).parent.parent / "src/repro/faults").rglob("*.py")):
        tree = ast.parse(path.read_text())
        functions = {
            node.name for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        }

        def code(value):
            return isinstance(value, ast.Lambda) or (
                isinstance(value, ast.Name) and value.id in functions
            )

        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Attribute) and node.attr == "__dict__":
                found.append(f"{where} __dict__")
            elif isinstance(node, (ast.Assign, ast.AnnAssign)) and code(node.value):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Attribute) for t in targets):
                    found.append(f"{where} code assigned to an attribute")
            elif (isinstance(node, ast.Call) and getattr(node.func, "id", "") == "setattr"
                  and len(node.args) == 3 and code(node.args[2])):
                found.append(f"{where} code set as an attribute")
    assert not found, found
