"""System-level property tests: invariances the design promises."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.budget.base import JobBudgetRequest
from repro.budget.even_power import EvenPowerBudgeter
from repro.budget.even_slowdown import EvenSlowdownBudgeter
from repro.core.job_endpoint import JobTierEndpoint
from repro.core.messages import BudgetMessage
from repro.core.transport import TcpLink
from repro.geopm.agent import AgentSample
from repro.geopm.endpoint import Endpoint
from repro.modeling.quadratic import QuadraticPowerModel
from repro.workloads.generator import PoissonScheduleGenerator
from repro.workloads.nas import NAS_TYPES


def request(job_id, nodes, sens):
    model = QuadraticPowerModel.from_anchors(2.0, sens, 140.0, 280.0)
    return JobBudgetRequest(job_id, nodes, model, 140.0, 280.0)


job_specs = st.lists(
    st.tuples(st.integers(1, 6), st.floats(1.0, 2.2)), min_size=2, max_size=6
)


class TestBudgeterInvariances:
    @given(job_specs, st.floats(0.2, 0.8), st.randoms(use_true_random=False))
    @settings(max_examples=40)
    def test_allocation_order_invariant(self, specs, frac, shuffler):
        """Caps must not depend on the order jobs are presented in."""
        jobs = [request(f"j{i}", n, s) for i, (n, s) in enumerate(specs)]
        lo = sum(j.p_min * j.nodes for j in jobs)
        hi = sum(j.p_max * j.nodes for j in jobs)
        budget = lo + frac * (hi - lo)
        for budgeter in (EvenPowerBudgeter(), EvenSlowdownBudgeter()):
            base = budgeter.allocate(jobs, budget).caps
            shuffled = list(jobs)
            shuffler.shuffle(shuffled)
            again = budgeter.allocate(shuffled, budget).caps
            for job in jobs:
                assert again[job.job_id] == pytest.approx(base[job.job_id], abs=1e-6)

    @given(job_specs, st.floats(0.2, 0.8))
    @settings(max_examples=40)
    def test_identical_jobs_get_identical_caps(self, specs, frac):
        """Symmetry: two jobs with the same model/nodes get the same cap."""
        nodes, sens = specs[0]
        jobs = [request("a", nodes, sens), request("b", nodes, sens)] + [
            request(f"j{i}", n, s) for i, (n, s) in enumerate(specs[1:])
        ]
        lo = sum(j.p_min * j.nodes for j in jobs)
        hi = sum(j.p_max * j.nodes for j in jobs)
        budget = lo + frac * (hi - lo)
        for budgeter in (EvenPowerBudgeter(), EvenSlowdownBudgeter()):
            caps = budgeter.allocate(jobs, budget).caps
            assert caps["a"] == pytest.approx(caps["b"], abs=1e-6)


class TestScheduleProperties:
    @given(st.integers(0, 10_000), st.floats(0.3, 0.95))
    @settings(max_examples=25, deadline=None)
    def test_generator_respects_window_and_ordering(self, seed, util):
        types = [NAS_TYPES["mg"], NAS_TYPES["cg"]]
        gen = PoissonScheduleGenerator(types, util, 64, seed=seed)
        sched = gen.generate(500.0, start_time=10.0)
        times = [r.submit_time for r in sched]
        assert times == sorted(times)
        assert all(10.0 <= t < 510.0 for t in times)
        assert len({r.job_id for r in sched}) == len(sched)


class TestDitherProperties:
    def test_dither_is_zero_mean_around_budget(self):
        """Exploration must not steal or add power on average."""
        geopm = Endpoint("j")
        link = TcpLink(latency=0.0)
        endpoint = JobTierEndpoint(
            "j", "bt", 2, geopm, link,
            default_model=QuadraticPowerModel.from_anchors(2.0, 1.3, 140.0, 280.0),
            feedback_enabled=True,
        )
        link.send_down(BudgetMessage("j", 200.0, 0.0), 0.0)
        applied = []
        for i in range(96):  # multiple full dither cycles
            # Starve the modeler of epochs so exploration never stops.
            geopm.publish_sample(
                AgentSample(float(i), 400.0, 0.0, 0, 2, 200.0)
            )
            endpoint.step(float(i))
            policy = geopm.take_policy()
            if policy is not None:
                applied.append(policy.power_cap_node)
        assert len(applied) > 50
        assert np.mean(applied) == pytest.approx(200.0, rel=0.01)

    def test_dither_stays_in_platform_range(self):
        geopm = Endpoint("j")
        link = TcpLink(latency=0.0)
        endpoint = JobTierEndpoint(
            "j", "bt", 2, geopm, link,
            default_model=QuadraticPowerModel.from_anchors(2.0, 1.3, 140.0, 280.0),
        )
        link.send_down(BudgetMessage("j", 142.0, 0.0), 0.0)  # near the floor
        for i in range(30):
            geopm.publish_sample(AgentSample(float(i), 280.0, 0.0, 0, 2, 142.0))
            endpoint.step(float(i))
            policy = geopm.take_policy()
            if policy is not None:
                assert 140.0 <= policy.power_cap_node <= 280.0
