"""Integration tests for the end-to-end ANOR system (Figs. 6–10 harness)."""

import numpy as np
import pytest

from repro.budget.even_power import EvenPowerBudgeter
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.framework import AnorConfig, AnorSystem, precharacterized_models
from repro.core.targets import ConstantTarget
from repro.modeling.classifier import JobClassifier, Misclassification
from repro.workloads.generator import PoissonScheduleGenerator
from repro.workloads.nas import NAS_TYPES


def make_system(*, budgeter=None, target=840.0, nodes=4, seed=0, feedback=False,
                classifier=None):
    return AnorSystem(
        budgeter=budgeter or EvenSlowdownBudgeter(),
        target_source=ConstantTarget(target),
        classifier=classifier,
        config=AnorConfig(num_nodes=nodes, seed=seed, feedback_enabled=feedback),
    )


class TestSingleJob:
    def test_job_completes_and_reports(self):
        system = make_system(target=280.0, nodes=1)
        system.submit_now("is-0", "is")
        result = system.run(until_idle=True, max_time=600.0)
        assert len(result.completed) == 1
        assert result.completed[0].epoch_count == NAS_TYPES["is"].epochs
        assert result.unstarted_jobs == 0

    def test_power_trace_columns(self):
        system = make_system(target=280.0, nodes=1)
        system.submit_now("is-0", "is")
        result = system.run(until_idle=True, max_time=600.0)
        trace = result.power_trace
        assert trace.shape[1] == 3
        assert np.all(trace[:, 1] == 280.0)  # constant target column

    def test_uncapped_budget_no_slowdown(self):
        system = make_system(target=2000.0, nodes=2)
        system.submit_now("mg-0", "mg", nodes=1)
        result = system.run(until_idle=True, max_time=600.0)
        ref = NAS_TYPES["mg"].compute_time(280.0)
        assert result.completed[0].runtime == pytest.approx(ref, rel=0.1)


class TestSharedBudget:
    def test_even_power_hurts_sensitive_job_more(self):
        system = make_system(budgeter=EvenPowerBudgeter())
        system.submit_now("bt-0", "bt")
        system.submit_now("sp-1", "sp")
        result = system.run(until_idle=True, max_time=3600.0)
        slow = {
            t.job_type: t.runtime / NAS_TYPES[t.job_type].compute_time(280.0) - 1
            for t in result.completed
        }
        assert slow["bt"] > slow["sp"] + 0.03

    def test_even_slowdown_narrows_gap(self):
        agnostic = make_system(budgeter=EvenPowerBudgeter(), seed=1)
        aware = make_system(budgeter=EvenSlowdownBudgeter(), seed=1)
        gaps = {}
        for name, system in (("agnostic", agnostic), ("aware", aware)):
            system.submit_now("bt-0", "bt")
            system.submit_now("sp-1", "sp")
            result = system.run(until_idle=True, max_time=3600.0)
            slow = {
                t.job_type: t.runtime / NAS_TYPES[t.job_type].compute_time(280.0) - 1
                for t in result.completed
            }
            gaps[name] = slow["bt"] - slow["sp"]
        assert gaps["aware"] < gaps["agnostic"]

    def test_queueing_when_cluster_full(self):
        system = make_system(nodes=2, target=560.0)
        system.submit_now("a", "ft")  # takes both nodes
        system.submit_now("b", "ft")  # must queue
        result = system.run(until_idle=True, max_time=3600.0)
        assert len(result.completed) == 2
        sojourns = {t.job_id: t.sojourn for t in result.completed}
        assert sojourns["b"] > sojourns["a"]


class TestMisclassificationAndFeedback:
    def test_misclassified_bt_slows_down(self):
        correct = make_system(seed=2)
        correct.submit_now("bt-0", "bt")
        correct.submit_now("sp-1", "sp")
        r_correct = correct.run(until_idle=True, max_time=3600.0)

        mis = make_system(seed=2)
        mis.submit_now("bt-0", "bt", claimed_type="is")
        mis.submit_now("sp-1", "sp")
        r_mis = mis.run(until_idle=True, max_time=3600.0)

        def bt_runtime(result):
            return [t for t in result.completed if t.job_type == "bt"][0].runtime

        assert bt_runtime(r_mis) > bt_runtime(r_correct)

    def test_feedback_recovers_some_performance(self):
        runtimes = {}
        for feedback in (False, True):
            agg = 0.0
            for seed in (3, 4, 5):
                system = make_system(seed=seed, feedback=feedback)
                system.submit_now("bt-0", "bt", claimed_type="is")
                system.submit_now("sp-1", "sp")
                result = system.run(until_idle=True, max_time=3600.0)
                agg += [t for t in result.completed if t.job_type == "bt"][0].runtime
            runtimes[feedback] = agg / 3.0
        assert runtimes[True] < runtimes[False]

    def test_type_level_misclassification_via_classifier(self):
        classifier = JobClassifier(
            precharacterized_models(),
            misclassifications=[Misclassification("bt", "is")],
        )
        system = make_system(seed=6, classifier=classifier)
        system.submit_now("bt-0", "bt")
        system.run(until_idle=True, max_time=3600.0)
        # The manager believed the (now finished) job was IS-shaped: we can
        # only check indirectly that the run completed under that belief.
        assert len(system.cluster.completed) == 1


class TestScheduledRuns:
    def test_poisson_schedule_executes(self):
        types = {k: NAS_TYPES[k] for k in ("mg", "cg")}
        gen = PoissonScheduleGenerator(
            list(types.values()), utilization=0.6, total_nodes=4, seed=0
        )
        schedule = gen.generate(400.0)
        system = AnorSystem(
            budgeter=EvenSlowdownBudgeter(),
            target_source=ConstantTarget(1120.0),
            schedule=schedule,
            job_types=types,
            config=AnorConfig(num_nodes=4, seed=0),
        )
        result = system.run(400.0, until_idle=True, max_time=3000.0)
        assert len(result.completed) == len(schedule)

    def test_head_forgets_the_jobs_that_finished(self):
        """The head's record of the jobs it launched is the jobs running on
        the cluster: a completion removes its entry, so the record does not
        grow with the length of the run."""
        types = {k: NAS_TYPES[k] for k in ("mg", "cg")}
        gen = PoissonScheduleGenerator(
            list(types.values()), utilization=0.9, total_nodes=4, seed=1
        )
        system = AnorSystem(
            target_source=ConstantTarget(1120.0),
            schedule=gen.generate(600.0),
            job_types=types,
            config=AnorConfig(num_nodes=4, seed=1),
        )
        for _ in range(3):
            system.run(200.0)
            assert system.cluster.completed
            assert set(system._launched) == set(system.cluster.running)
        system.run(until_idle=True, max_time=6000.0)
        assert system._launched == {}

    def test_attach_serials_are_the_attached_endpoints(self):
        """A job killed by a node crash, and a job whose endpoint crashed,
        keep no attach serial: only a job in ``endpoints`` has one."""
        system = make_system()
        for kind in ("mg", "cg", "is"):
            system.submit_now(f"{kind}-0", kind, nodes=1)
        system.run(20.0)
        running = system.cluster.running
        system.crash_node(running["mg-0"].nodes[0].node_id)
        assert set(system._attach_serial) == set(system.endpoints)
        system.crash_endpoint("cg-0")
        assert set(system._attach_serial) == set(system.endpoints) == {"is-0"}
        system.run(until_idle=True, max_time=3000.0)
        assert system._attach_serial == {} and system.endpoints == {}

    def test_run_requires_duration_or_until_idle(self):
        system = make_system()
        with pytest.raises(ValueError, match="duration"):
            system.run()

    def test_max_time_bounds_run(self):
        system = make_system(nodes=1, target=280.0)
        system.submit_now("lu-0", "lu")
        result = system.run(until_idle=True, max_time=10.0)
        assert result.duration <= 11.0


class TestResultHelpers:
    def test_slowdowns_by_type(self):
        system = make_system(target=1120.0)
        system.submit_now("mg-0", "mg", nodes=1)
        result = system.run(until_idle=True, max_time=600.0)
        ref = {"mg": NAS_TYPES["mg"].compute_time(280.0)}
        slow = result.slowdowns_by_type(ref)
        assert "mg" in slow and len(slow["mg"]) == 1

    def test_qos_by_type(self):
        system = make_system(target=1120.0)
        system.submit_now("mg-0", "mg", nodes=1)
        result = system.run(until_idle=True, max_time=600.0)
        t_min = {"mg": NAS_TYPES["mg"].total_time(280.0)}
        qos = result.qos_by_type(t_min)
        assert qos["mg"][0] >= -0.2  # ran immediately: Q near zero


class TestControlPeriods:
    def test_default_periods_fire_every_tick(self):
        system = make_system(nodes=1)
        calls = []
        system.manager.step = lambda now, feed, measured: calls.append(now)
        for _ in range(50):
            system.step()
        assert calls == [float(t) for t in range(1, 51)]

    def test_non_tick_multiple_period_fires_exactly_duration_over_period(self):
        # Regression for the old ``next = now + period - 1e-9`` re-anchor:
        # a 2.5 s manager period polled at 1 s ticks fired every 3 s,
        # losing a quarter of the control updates over a long run.
        from repro.core.targets import ConstantTarget

        system = AnorSystem(
            target_source=ConstantTarget(280.0),
            config=AnorConfig(num_nodes=1, tick=1.0, manager_period=2.5),
        )
        calls = []
        system.manager.step = lambda now, feed, measured: calls.append(now)
        for _ in range(2000):
            system.step()
        assert len(calls) == 800  # 2000 s horizon / 2.5 s period, exactly
