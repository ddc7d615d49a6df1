"""Tests for the job-tier endpoint (modeler process, paper §4.2/Fig. 2)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.framework import AnorConfig
from repro.core.job_endpoint import EXPLORE_AMPLITUDE, JobTierEndpoint
from repro.core.messages import BudgetMessage, GoodbyeMessage, HelloMessage, StatusMessage
from repro.core.transport import TcpLink
from repro.experiments.fig9 import build_demand_response_system
from repro.geopm.agent import AgentSample
from repro.geopm.endpoint import Endpoint
from repro.modeling.online import MIN_SAMPLE_EPOCHS
from repro.modeling.quadratic import QuadraticPowerModel
from repro.telemetry import Telemetry


def make_endpoint(**kwargs) -> tuple[JobTierEndpoint, Endpoint, TcpLink]:
    geopm = Endpoint(job_id="j")
    link = TcpLink(latency=0.0)
    defaults = dict(
        default_model=QuadraticPowerModel.from_anchors(2.0, 1.3, 140.0, 280.0),
    )
    defaults.update(kwargs)
    endpoint = JobTierEndpoint("j", "bt", 2, geopm, link, **defaults)
    return endpoint, geopm, link


def publish(geopm, *, t, epochs, power=400.0, cap=280.0):
    geopm.publish_sample(
        AgentSample(
            timestamp=t, power=power, energy=0.0, epoch_count=epochs,
            nodes=2, applied_cap=cap,
        )
    )


class TestHandshake:
    def test_hello_sent_on_first_step(self):
        endpoint, _, link = make_endpoint()
        endpoint.step(0.0)
        msgs = link.recv_up(0.0)
        assert isinstance(msgs[0], HelloMessage)
        assert msgs[0].claimed_type == "bt"
        assert msgs[0].nodes == 2

    def test_hello_sent_once(self):
        endpoint, geopm, link = make_endpoint()
        endpoint.step(0.0)
        link.recv_up(0.0)
        endpoint.step(1.0)
        assert not any(
            isinstance(m, HelloMessage) for m in link.recv_up(1.0)
        )

    def test_goodbye_idempotent(self):
        endpoint, _, link = make_endpoint()
        endpoint.close(5.0)
        endpoint.close(6.0)
        msgs = [m for m in link.recv_up(10.0) if isinstance(m, GoodbyeMessage)]
        assert len(msgs) == 1


class TestBudgetApplication:
    def test_budget_forwarded_as_geopm_policy(self):
        endpoint, geopm, link = make_endpoint(feedback_enabled=False)
        link.send_down(BudgetMessage("j", 200.0, 0.0), 0.0)
        endpoint.step(0.0)
        policy = geopm.take_policy()
        assert policy is not None
        assert policy.power_cap_node == 200.0

    def test_last_budget_wins(self):
        endpoint, geopm, link = make_endpoint(feedback_enabled=False)
        link.send_down(BudgetMessage("j", 200.0, 0.0), 0.0)
        link.send_down(BudgetMessage("j", 250.0, 0.0), 0.0)
        endpoint.step(0.0)
        assert geopm.take_policy().power_cap_node == 250.0

    def test_dither_active_while_identifying(self):
        endpoint, geopm, link = make_endpoint(feedback_enabled=True)
        link.send_down(BudgetMessage("j", 200.0, 0.0), 0.0)
        caps = set()
        for i in range(40):
            endpoint.step(float(i))
            policy = geopm.take_policy()
            if policy is not None:
                caps.add(round(policy.power_cap_node, 1))
        assert len(caps) >= 2  # exploring both sides of the budget
        for cap in caps:
            assert abs(cap - 200.0) <= 200.0 * EXPLORE_AMPLITUDE + 0.1

    def test_no_dither_when_feedback_disabled(self):
        endpoint, geopm, link = make_endpoint(feedback_enabled=False)
        link.send_down(BudgetMessage("j", 200.0, 0.0), 0.0)
        caps = set()
        for i in range(20):
            endpoint.step(float(i))
            policy = geopm.take_policy()
            if policy is not None:
                caps.add(policy.power_cap_node)
        assert caps == {200.0}


class TestPolicyWrite:
    """One write serves every cap.  Each case checks the five policy cells
    written (NaN where unset), whether the modeler's cap moved, and the
    policies counter."""

    @pytest.fixture
    def counted(self, monkeypatch):
        def build(**kwargs):
            endpoint, geopm, link = make_endpoint(
                feedback_enabled=False, telemetry=Telemetry(), **kwargs
            )
            caps = []  # every modeler.set_cap(t, cap)
            set_cap = endpoint.modeler.set_cap

            def recording(t, cap):
                caps.append((t, cap))
                set_cap(t, cap)

            monkeypatch.setattr(endpoint.modeler, "set_cap", recording)
            return endpoint, geopm, link, caps

        return build

    @staticmethod
    def policies(endpoint):
        return endpoint.telemetry.registry.get_value("anor_policies_written_total")

    def test_unleased_writes_a_budget_and_nothing_else(self, counted):
        endpoint, geopm, link, caps = counted()
        link.send_down(BudgetMessage("j", 200.0, 0.0), 0.0)
        endpoint.step(0.0)
        np.testing.assert_array_equal(geopm._policy, [200.0, 0.0, math.nan, math.nan, 30.0])
        assert caps == [(0.0, 200.0)] and self.policies(endpoint) == 1
        geopm.take_policy()
        endpoint.step(1.0)
        assert not geopm.has_pending_policy
        assert caps == [(0.0, 200.0)] and self.policies(endpoint) == 1
        # A budget is a change even when it repeats the cap.
        link.send_down(BudgetMessage("j", 200.0, 2.0), 2.0)
        endpoint.step(2.0)
        np.testing.assert_array_equal(geopm._policy, [200.0, 2.0, math.nan, math.nan, 30.0])
        assert caps[-1] == (2.0, 200.0) and self.policies(endpoint) == 2

    def test_leased_in_contact_rewrites_every_period(self, counted):
        endpoint, geopm, link, caps = counted(lease_ttl=10.0, lease_ramp_seconds=20.0)
        link.send_down(BudgetMessage("j", 200.0, 0.0, lease_ttl=10.0), 0.0)
        endpoint.step(0.0)
        np.testing.assert_array_equal(geopm._policy, [200.0, 0.0, 10.0, 140.0, 20.0])
        assert caps == [(0.0, 200.0)] and self.policies(endpoint) == 1
        endpoint.step(1.0)
        np.testing.assert_array_equal(geopm._policy, [200.0, 1.0, 10.0, 140.0, 20.0])
        assert caps == [(0.0, 200.0)] and self.policies(endpoint) == 1

    def test_degraded_writes_each_move_of_the_decay(self, counted):
        endpoint, geopm, link, caps = counted(lease_ttl=5.0, lease_ramp_seconds=10.0)
        link.send_down(BudgetMessage("j", 200.0, 0.0, lease_ttl=5.0), 0.0)
        endpoint.step(0.0)
        endpoint.step(6.0)  # past the lease: the decay starts at the last budget
        assert endpoint.degraded
        np.testing.assert_array_equal(geopm._policy, [200.0, 6.0, 5.0, 140.0, 10.0])
        assert caps[-1] == (6.0, 200.0) and self.policies(endpoint) == 2
        endpoint.step(11.0)  # half the ramp
        np.testing.assert_array_equal(geopm._policy, [170.0, 11.0, 5.0, 140.0, 10.0])
        assert caps[-1] == (11.0, 170.0) and self.policies(endpoint) == 3
        endpoint.step(16.0)  # settled at p_min
        np.testing.assert_array_equal(geopm._policy, [140.0, 16.0, 5.0, 140.0, 10.0])
        assert caps[-1] == (16.0, 140.0) and self.policies(endpoint) == 4
        geopm.take_policy()
        endpoint.step(17.0)
        assert not geopm.has_pending_policy
        assert len(caps) == 4 and self.policies(endpoint) == 4


class TestSlowerAgents:
    """Agents slower than the endpoint leave one sample up for several
    endpoint periods, with caps stamped after it."""

    def test_a_sample_is_fed_once_and_reported_every_period(self, monkeypatch):
        endpoint, geopm, link = make_endpoint(feedback_enabled=False)
        fed = []  # every modeler.observe(t, epochs, cap)
        observe = endpoint.modeler.observe

        def recording(*args):
            fed.append(args)
            return observe(*args)

        monkeypatch.setattr(endpoint.modeler, "observe", recording)
        publish(geopm, t=0.0, epochs=0)
        endpoint.step(0.0)
        publish(geopm, t=1.0, epochs=1, cap=280.0)
        endpoint.step(1.0)
        link.send_down(BudgetMessage("j", 200.0, 2.0), 2.0)
        endpoint.step(2.0)  # stamps 200 W at t=2, after the t=1 sample
        endpoint.step(3.0)
        assert fed == [(0.0, 0, 280.0), (1.0, 1, 280.0)]
        statuses = [m for m in link.recv_up(3.0) if isinstance(m, StatusMessage)]
        assert [m.timestamp for m in statuses] == [0.0, 1.0, 1.0, 1.0]

    @pytest.mark.parametrize("agent_period", [4.0, 60.0])
    def test_a_run_with_slower_agents_finishes(self, agent_period):
        config = AnorConfig(agent_period=agent_period, endpoint_period=1.0)
        system = build_demand_response_system(duration=300.0, seed=2, config=config)
        result = system.run(300.0)
        assert system.cluster.clock.now == 300.0
        assert result.completed


class TestStatusReporting:
    def test_status_carries_sample_fields(self):
        endpoint, geopm, link = make_endpoint()
        publish(geopm, t=1.0, epochs=3, power=420.0, cap=260.0)
        endpoint.step(1.0)
        statuses = [m for m in link.recv_up(1.0) if isinstance(m, StatusMessage)]
        assert statuses[0].epoch_count == 3
        assert statuses[0].measured_power == 420.0
        assert statuses[0].applied_cap == 260.0

    def test_no_status_before_first_sample(self):
        endpoint, _, link = make_endpoint()
        assert endpoint.step(0.0) is None

    def test_no_model_until_enough_samples(self):
        endpoint, geopm, link = make_endpoint()
        publish(geopm, t=1.0, epochs=2)
        endpoint.step(1.0)
        status = [m for m in link.recv_up(1.0) if isinstance(m, StatusMessage)][0]
        assert not status.has_model

    def test_model_shared_after_identification(self):
        endpoint, geopm, link = make_endpoint()
        # Feed epochs at two clearly different caps with consistent timing:
        # two training samples per phase, eight in all.
        epochs = 0
        t = 0.0
        last_status = None
        for phase, cap in ((1, 160.0), (2, 260.0), (3, 160.0), (4, 260.0)):
            for _ in range(2 * MIN_SAMPLE_EPOCHS):
                t += 2.0
                epochs += 1
                tau = 3.0 if cap < 200.0 else 2.0
                publish(geopm, t=t, epochs=epochs, cap=cap)
                last_status = endpoint.step(t) or last_status
        assert last_status is not None and last_status.has_model
        assert last_status.model_a is not None

    def test_feedback_disabled_never_shares(self):
        endpoint, geopm, link = make_endpoint(feedback_enabled=False)
        epochs = 0
        t = 0.0
        for cap in (160.0, 260.0) * 10:
            for _ in range(4):
                t += 2.0
                epochs += 1
                publish(geopm, t=t, epochs=epochs, cap=cap)
                status = endpoint.step(t)
        assert status is not None and not status.has_model


# --------------------------------------------------------- memoised verdict

TRUTH = QuadraticPowerModel.from_anchors(1.0, 1.5, 140.0, 280.0)
SEEDS = (
    QuadraticPowerModel.from_anchors(2.0, 1.4, 140.0, 280.0),
    QuadraticPowerModel(0.0, 0.02, 1.0, 140.0, 280.0),  # rising: never shareable
)

modeler_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.sampled_from((1.0, 2.0, 5.0)),
            st.sampled_from((145.0, 150.0, 180.0, 220.0, 275.0)),
        ),
        st.tuples(
            st.just("set_cap"),
            st.sampled_from((0.0, 0.5)),
            st.sampled_from((150.0, 200.0, 270.0)),
        ),
        st.tuples(st.just("seed_fit"), st.integers(0, len(SEEDS) - 1), st.none()),
        # A new power-sensitivity phase: what drift detection resets on.
        st.tuples(st.just("phase"), st.sampled_from((1.0, 1.7, 0.6)), st.none()),
    ),
    max_size=120,
)


def coverage_from_list(modeler) -> float:
    """``cap_coverage`` as it was derived before the running extremes."""
    if len(modeler.history) < 2:
        return 0.0
    caps, _, _ = modeler.history.arrays()
    return float(caps.max() - caps.min()) / (modeler.p_max - modeler.p_min)


class ModelerDriver:
    """Feeds an endpoint's modeler from a synthetic job obeying ``TRUTH``."""

    def __init__(self, endpoint) -> None:
        self.endpoint = endpoint
        self.t = self.progress = 0.0
        self.phase = 1.0

    def apply(self, ops) -> list[dict]:
        """Run ``ops``; after every call the memo must equal a fresh verdict."""
        endpoint, modeler = self.endpoint, self.endpoint.modeler
        verdicts = []
        for kind, x, y in ops:
            if kind == "observe":
                self.t += x
                self.progress += x / (TRUTH.time_at(y) * self.phase)
                modeler.observe(self.t, int(self.progress), y)
            elif kind == "set_cap":
                self.t += x
                modeler.set_cap(self.t, y)
            elif kind == "seed_fit":
                modeler.seed_fit(SEEDS[x], r2=0.5)
            else:
                self.phase = x
            verdicts.append(endpoint._model_fields())
            assert verdicts[-1] == endpoint._evaluate_model_fields()
            assert modeler.epochs_observed == sum(
                s.epochs for s in modeler.history.samples
            )
            assert modeler.cap_coverage == coverage_from_list(modeler)
        return verdicts


class TestModelFieldsMemo:
    @settings(max_examples=200, deadline=None)
    @given(ops=modeler_ops)
    def test_memo_equals_fresh_evaluation_after_every_call(self, ops):
        endpoint, _, _ = make_endpoint()
        endpoint.modeler.detect_drift = True
        ModelerDriver(endpoint).apply(ops)

    def test_memo_follows_a_fit_through_seed_and_drift_reset(self):
        endpoint, _, _ = make_endpoint()
        endpoint.modeler.detect_drift = True
        driver = ModelerDriver(endpoint)
        sweep = [
            ("observe", 2.0, cap) for cap in (150.0, 270.0) * 4 for _ in range(15)
        ]
        learned = driver.apply(sweep)
        assert not learned[0] and learned[-1]  # withheld, then shared
        assert endpoint._model_fields() is endpoint._model_fields()
        seeded = driver.apply([("seed_fit", 0, None)])
        assert seeded[-1]["model_a"] == SEEDS[0].a
        relearned = driver.apply(sweep)
        assert relearned[-1]["model_a"] != SEEDS[0].a  # live data took over
        resets = endpoint.modeler.drift_resets
        shifted = driver.apply([("phase", 1.7, None)] + sweep)
        assert endpoint.modeler.drift_resets > resets
        assert {} in shifted  # the reset withdrew the fit until it relearned

    def test_revision_moves_only_with_history_or_fit(self):
        endpoint, _, _ = make_endpoint()
        modeler = endpoint.modeler
        modeler.observe(0.0, 0, 200.0)
        modeler.observe(1.0, 1, 200.0)  # first epoch: anchors, no sample yet
        before = modeler.revision
        modeler.observe(2.0, 1, 200.0)  # no progress
        modeler.set_cap(2.5, 180.0)
        modeler.observe(3.0, 2, 180.0)  # below min_sample_epochs
        assert modeler.revision == before and len(modeler.history) == 0
        modeler.observe(9.0, 8, 180.0)
        assert len(modeler.history) == 1 and modeler.revision > before
