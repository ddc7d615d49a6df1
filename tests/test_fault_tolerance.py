"""Failure injection: the control plane under lossy links and silent peers.

The ANOR tiers always resend *current state* (latest cap, latest status)
rather than deltas, so a dropped message should only delay convergence, not
corrupt it.  These tests run the system under a run-long cluster-wide
:class:`LinkDegradation` window (no subclass surgery on channels), and pin the manager's
hardening behaviors: heartbeat staleness fallback, dead-job eviction closing
the dropped-goodbye leak, strict model validation, and the budget-sum
invariant across seeds.
"""

import math

import numpy as np
import pytest

from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.cluster_manager import (
    DEAD_JOB_TIMEOUT,
    STALE_STATUS_TIMEOUT,
)
from repro.core.framework import AnorConfig, AnorSystem, precharacterized_models
from repro.core.job_endpoint import JobTierEndpoint
from repro.core.messages import GoodbyeMessage, HelloMessage, StatusMessage
from repro.core.targets import HOLD_GRACE, ConstantTarget, HoldLastGoodTarget
from repro.core.transport import TcpLink
from repro.faults.events import LinkDegradation
from repro.faults.schedule import FaultSchedule
from repro.geopm.endpoint import Endpoint
from repro.invariants import RoundMonitor
from repro.modeling.classifier import JobClassifier
from repro.modeling.quadratic import QuadraticPowerModel
from repro.telemetry import Telemetry
from repro.workloads.nas import NAS_TYPES, P_NODE_MIN
from tests.fed_manager import FedManager


def lossy_network(drop: float, duration: float) -> FaultSchedule:
    """Every link, including the ones dialled later, loses ``drop`` of its
    messages for the whole run."""
    return FaultSchedule(
        [LinkDegradation(time=0.0, duration=duration, drop_probability=drop)]
    )


def run_lossy(drop: float, *, seed: int = 0):
    system = AnorSystem(
        budgeter=EvenSlowdownBudgeter(),
        target_source=ConstantTarget(840.0),
        classifier=JobClassifier(precharacterized_models()),
        config=AnorConfig(num_nodes=4, seed=seed, feedback_enabled=True),
        fault_schedule=lossy_network(drop, 7200.0),
    )
    system.submit_now("bt-0", "bt")
    system.submit_now("sp-1", "sp")
    return system.run(until_idle=True, max_time=7200.0)


class TestLossyLinks:
    def test_jobs_complete_under_30pct_loss(self):
        result = run_lossy(0.30)
        assert len(result.completed) == 2
        assert all(t.epoch_count > 0 for t in result.completed)

    def test_budget_still_respected_under_loss(self):
        """Dropped caps delay convergence but the budget holds on average."""
        result = run_lossy(0.30)
        trace = result.power_trace
        steady = trace[(trace[:, 0] > 60) & (trace[:, 2] > 500)]
        assert steady[:, 2].mean() <= 840.0 * 1.10

    def test_performance_similar_to_lossless(self):
        lossless = run_lossy(0.0, seed=3)
        lossy = run_lossy(0.30, seed=3)
        for job_type in ("bt", "sp"):
            t0 = [t for t in lossless.completed if t.job_type == job_type][0]
            t1 = [t for t in lossy.completed if t.job_type == job_type][0]
            # Resent-state protocol: loss costs at most a few control periods.
            assert t1.runtime <= t0.runtime * 1.15 + 10.0

    def test_hello_eventually_arrives(self):
        """Even the handshake survives: the endpoint resends nothing, but
        the cluster manager only needs ONE hello to get through — with 30 %
        loss over repeated statuses the job is registered within seconds."""
        result = run_lossy(0.30, seed=9)
        assert len(result.completed) == 2

    def test_per_direction_latency_override(self):
        link = TcpLink(0.1, latency_up=2.0, latency_down=0.5)
        assert link.up.latency == pytest.approx(2.0)
        assert link.down.latency == pytest.approx(0.5)


def make_manager(*, target=840.0, total_nodes=4, **kwargs):
    return FedManager(
        budgeter=EvenSlowdownBudgeter(),
        target_source=ConstantTarget(target),
        classifier=JobClassifier(precharacterized_models()),
        total_nodes=total_nodes,
        **kwargs,
    )


def counted(manager, metric):
    """A decision count: the registry's, so the manager needs telemetry on."""
    return manager.telemetry.registry.get_value(metric)


def connect_job(manager, job_id, claimed, nodes, *, now=0.0):
    link = TcpLink(latency=0.0)
    manager.register_link(link)
    link.send_up(HelloMessage(job_id, claimed, nodes, now), now)
    return link


def send_status(link, job_id, *, t, epochs=5, power=400.0, cap=200.0, **model):
    link.send_up(
        StatusMessage(
            job_id=job_id, timestamp=t, epoch_count=epochs,
            measured_power=power, applied_cap=cap, **model,
        ),
        t,
    )


class TestManagerRobustness:
    def test_duplicate_hello_is_idempotent(self):
        manager = make_manager()
        link = TcpLink(latency=0.0)
        manager.register_link(link)
        link.send_up(HelloMessage("j", "bt", 2, 0.0), 0.0)
        link.send_up(HelloMessage("j", "bt", 2, 0.1), 0.1)
        manager.step(0.2)
        assert len(manager.jobs) == 1

    def test_endpoint_survives_missing_budget(self):
        """No budget ever arrives: the endpoint keeps running uncapped."""
        geopm = Endpoint(job_id="j")
        link = TcpLink(latency=0.0)
        endpoint = JobTierEndpoint(
            "j", "bt", 2, geopm, link,
            default_model=QuadraticPowerModel.from_anchors(2.0, 1.3, 140.0, 280.0),
        )
        for i in range(10):
            endpoint.step(float(i))
        assert endpoint.current_cap == 280.0


class TestHeartbeatStaleness:
    def test_stale_job_budgeted_conservatively(self):
        """A silent job gets the floor cap and its last cap stays reserved."""
        manager = make_manager()
        talker = connect_job(manager, "a", "bt", 2)
        quiet = connect_job(manager, "b", "bt", 2)  # speaks once, then silence
        send_status(talker, "a", t=0.0, power=400.0)
        send_status(quiet, "b", t=0.0, power=400.0)
        caps0 = manager.step(0.0)
        assert caps0["b"] > P_NODE_MIN  # budgeted normally at first
        silent_for = STALE_STATUS_TIMEOUT + 5.0
        send_status(talker, "a", t=silent_for, power=400.0)
        caps = manager.step(silent_for)
        assert caps["b"] == P_NODE_MIN
        rnd = manager.last_round
        assert rnd.stale_jobs == 1
        # Reserved = the stale job's last sent cap x nodes: it may still be
        # drawing that much, so it cannot be handed to anyone else.
        assert rnd.reserved == pytest.approx(2 * caps0["b"])

    def test_recovery_from_staleness(self):
        manager = make_manager()
        talker = connect_job(manager, "a", "bt", 2)
        silent = connect_job(manager, "b", "bt", 2)
        send_status(talker, "a", t=0.0, power=400.0)
        manager.step(0.0)
        send_status(talker, "a", t=20.0, power=400.0)
        caps = manager.step(20.0)
        assert caps["b"] == P_NODE_MIN
        # The job speaks again: budgeted normally on the very next round.
        send_status(talker, "a", t=21.0, power=400.0)
        send_status(silent, "b", t=21.0, power=400.0)
        caps = manager.step(21.0)
        assert caps["b"] > P_NODE_MIN
        assert manager.last_round.stale_jobs == 0

    def test_dropped_goodbye_evicts_after_timeout(self):
        """The ghost-record leak: a goodbye that never arrives used to leave
        a JobRecord (and its link) behind forever.  The dead-job timeout
        closes it."""
        manager = make_manager(telemetry=Telemetry())
        link = connect_job(manager, "a", "bt", 2)
        send_status(link, "a", t=0.0, power=400.0)
        manager.step(0.0)
        assert "a" in manager.jobs
        # The endpoint sends its goodbye... onto a link that eats it.
        link.up.drop_probability = 0.999999999
        link.send_up(GoodbyeMessage("a", 1.0), 1.0)
        manager.step(DEAD_JOB_TIMEOUT)
        assert "a" in manager.jobs  # silent but not yet presumed dead
        manager.step(DEAD_JOB_TIMEOUT + 5.0)
        assert manager.jobs == {}
        assert counted(manager, "anor_jobs_evicted_total") == 1
        assert link not in manager._links  # link garbage-collected too

    def test_timeout_validation(self):
        # The range the deleted constructor checks enforced: a job is
        # distrusted before it is forgotten.
        assert STALE_STATUS_TIMEOUT > 0
        assert DEAD_JOB_TIMEOUT >= STALE_STATUS_TIMEOUT


class TestModelValidation:
    @pytest.mark.parametrize(
        "coeffs",
        [
            dict(model_a=math.nan, model_b=-0.01, model_c=5.0, model_r2=0.9),
            dict(model_a=0.0, model_b=math.inf, model_c=5.0, model_r2=0.9),
            dict(model_a=0.0, model_b=-0.01, model_c=math.nan, model_r2=0.9),
            dict(model_a=0.0, model_b=-0.01, model_c=5.0, model_r2=math.nan),
            # Non-physical: time *rising* with power.
            dict(model_a=0.0, model_b=0.05, model_c=0.1, model_r2=0.9),
        ],
    )
    def test_bad_model_rejected(self, coeffs):
        manager = make_manager(use_feedback=True, telemetry=Telemetry())
        link = connect_job(manager, "a", "is", 2)
        send_status(link, "a", t=0.0, power=400.0, **coeffs)
        manager.step(0.0)
        assert manager.jobs["a"].online_model is None
        assert counted(manager, "anor_models_rejected_total") == 1

    def test_nonfinite_power_rejected_without_eviction(self):
        manager = make_manager(telemetry=Telemetry())
        link = connect_job(manager, "a", "bt", 2)
        send_status(link, "a", t=0.0, power=math.nan)
        manager.step(0.0)
        assert counted(manager, "anor_statuses_rejected_total") == 1
        assert manager.jobs["a"].last_status is None
        # The arrival still counted as a heartbeat.
        assert manager.jobs["a"].last_heard == 0.0
        caps = manager.step(1.0)
        assert caps["a"] > 0


class TestMeterFaults:
    def test_nan_meter_skips_sample_and_holds_correction(self):
        readings = iter([800.0, math.nan, math.nan, 800.0])
        seen = []
        manager = make_manager(
            meter=lambda: next(readings), correction_gain=0.5, monitors=[seen.append],
            telemetry=Telemetry(),
        )
        for t in range(4):
            manager.step(float(t))
        assert counted(manager, "anor_meter_faults_total") == 2
        assert sum(math.isfinite(rnd.measured) for rnd in seen) == 2

    def test_raising_meter_is_a_fault_not_a_crash(self):
        """A meter that could not be read reaches the round as NaN."""
        manager = make_manager(telemetry=Telemetry())
        manager.step(0.0, 840.0, math.nan)  # must not raise
        assert counted(manager, "anor_meter_faults_total") == 1


class TestHoldLastGoodTarget:
    def test_manager_wraps_target_source(self):
        """Every round's feed passes through the manager's own hold filter,
        whose floor is the cluster's lowest enforceable power."""
        manager = make_manager()
        assert isinstance(manager.target_hold, HoldLastGoodTarget)
        assert manager.target_hold.floor == 4 * P_NODE_MIN
        manager.step(0.0, math.nan, math.nan)
        assert manager.target_hold.degraded_reads == 1

    def test_holds_then_decays_to_floor(self):
        hold = HoldLastGoodTarget(floor=300.0)
        assert hold.read(5.0, 1000.0) == 1000.0
        assert hold.read(HOLD_GRACE, math.nan) == 1000.0  # within grace: hold flat
        decayed = hold.read(HOLD_GRACE + 100.0, math.nan)
        assert 300.0 < decayed < 1000.0  # past grace: decaying
        assert hold.read(10_000.0, math.nan) == 300.0  # eventually the floor
        assert hold.degraded_reads == 3

    def test_serves_floor_before_first_good_read(self):
        hold = HoldLastGoodTarget(floor=250.0)
        assert hold.read(0.0, math.nan) == 250.0

    def test_a_raising_target_source_is_held_not_fatal(self):
        """The system reads a source that raises as NaN, in the power trace
        and in the round, and the head holds its last good target."""

        class Flaky(ConstantTarget):
            def target(self, now):
                if 30.0 <= now < 40.0:
                    raise ConnectionError("facility feed down")
                return self.watts

        rounds = []
        system = AnorSystem(
            target_source=Flaky(840.0),
            config=AnorConfig(num_nodes=4, seed=0),
            monitors=[lambda rnd: rounds.append(rnd.time)],
        )
        system.submit_now("j1", "bt", nodes=2)
        result = system.run(60.0)
        times, target = result.power_trace[:, 0], result.power_trace[:, 1]
        down = (times >= 30.0) & (times < 40.0)
        assert down.any() and times[-1] >= 60.0
        assert np.isnan(target[down]).all()
        assert not np.isnan(target[~down]).any()
        in_window = [t for t in rounds if 30.0 <= t < 40.0]
        assert in_window
        assert system.manager.target_hold.degraded_reads == len(in_window)


class TestBudgetSumProperty:
    @pytest.mark.parametrize("seed", range(8))
    def test_planned_draw_never_exceeds_target_or_floor(self, seed):
        """Property: over random job mixes, silences, and dormancy, the
        manager's planned draw (idle + reserved + allocated) stays within
        max(target + correction, enforceable floor)."""
        rng = np.random.default_rng(seed)
        target = float(rng.uniform(900.0, 2500.0))
        monitor = RoundMonitor()
        manager = make_manager(target=target, total_nodes=16, monitors=[monitor])
        links = {}
        types = list(NAS_TYPES)
        for i in range(int(rng.integers(2, 6))):
            job_id = f"j{i}"
            nodes = int(rng.integers(1, 5))
            claimed = types[int(rng.integers(0, len(types)))]
            links[job_id] = (connect_job(manager, job_id, claimed, nodes), nodes)
        silent = {j for j in links if rng.random() < 0.3}
        for t in range(0, 40, 2):
            for job_id, (link, nodes) in links.items():
                if job_id in silent and t > 4:
                    continue
                power = float(rng.uniform(80.0, 280.0)) * nodes
                send_status(link, job_id, t=float(t), power=power)
            manager.step(float(t))
        assert len(monitor.rows) == 20 and not monitor.violations, monitor.violations


class TestHelloLossEdge:
    def test_hello_dropped_forever_means_no_budget_but_no_crash(self):
        """Pathological: the one-and-only hello is lost.  The manager never
        budgets the job (it runs uncapped at TDP) but nothing breaks."""
        system = AnorSystem(
            budgeter=EvenSlowdownBudgeter(),
            target_source=ConstantTarget(560.0),
            config=AnorConfig(num_nodes=2, seed=0, feedback_enabled=False),
            # Effectively everything drops.
            fault_schedule=lossy_network(0.999999, 600.0),
        )
        system.submit_now("mg-0", "mg", nodes=1)
        result = system.run(until_idle=True, max_time=600.0)
        assert len(result.completed) == 1
        ref = NAS_TYPES["mg"].compute_time(280.0)
        # Ran at TDP the whole time: no slowdown beyond noise.
        assert result.completed[0].runtime == pytest.approx(ref, rel=0.1)
