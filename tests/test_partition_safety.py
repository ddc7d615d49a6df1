"""Partition-tolerance invariants (DESIGN.md §4e).

Covers the whole fail-safe chain: the agent-level cap lease
(:class:`AgentPolicy`), the endpoint dead-man switch and degraded autonomy
(:class:`JobTierEndpoint`), the ack/retry :class:`ReliableLink` with its
partition detector, the overshoot :class:`PowerBreaker`, and the end-to-end
safety bound — a full head↔endpoint partition injected *mid-downward-ramp*
may leave measured power over the enforceable limit for at most
``lease_ttl + lease_ramp`` (plus scheduling slack) seconds.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import AnorConfig, AnorSystem
from repro.core.job_endpoint import JobTierEndpoint
from repro.core.messages import BudgetMessage, HelloMessage
from repro.core import reliable
from repro.core.reliable import Ack, Envelope, ReliableLink
from repro.core.targets import SteppedTarget
from repro.core.transport import TcpLink
from repro.facility.breaker import CONFIRM_ROUNDS, RESET_ROUNDS, TRIP_ROUNDS, PowerBreaker
from repro.faults.events import (
    LinkDegradation,
    MeterOutage,
    NetworkPartition,
    NodeCrash,
    PartitionEnd,
    PartitionStart,
)
from repro.faults.schedule import FaultSchedule
from repro.geopm.agent import AgentPolicy, AgentSample
from repro.geopm.endpoint import Endpoint
from repro.invariants import longest_over_limit
from repro.modeling.quadratic import QuadraticPowerModel
from repro.workloads.nas import P_NODE_MIN
from tests.reliable_reference import ReferenceLink


def make_endpoint(**kwargs):
    geopm = Endpoint(job_id="j")
    link = TcpLink(latency=0.0)
    defaults = dict(
        default_model=QuadraticPowerModel.from_anchors(2.0, 1.3, 140.0, 280.0),
        feedback_enabled=False,
    )
    defaults.update(kwargs)
    endpoint = JobTierEndpoint("j", "bt", 2, geopm, link, **defaults)
    return endpoint, geopm, link


def leased_budget(cap, *, t=0.0, ttl=10.0):
    return BudgetMessage("j", cap, t, lease_ttl=ttl)


# --------------------------------------------------------------------------
# Agent tier: AgentPolicy is itself a lease.
# --------------------------------------------------------------------------


class TestAgentPolicyLease:
    def test_no_lease_means_constant_cap(self):
        policy = AgentPolicy(power_cap_node=200.0, issued_at=0.0)
        for now in (0.0, 100.0, 1e6):
            assert policy.effective_cap(now) == 200.0

    def test_cap_holds_until_expiry(self):
        policy = AgentPolicy(
            power_cap_node=200.0, issued_at=0.0, lease_ttl=10.0,
            safe_floor=140.0, ramp_seconds=30.0,
        )
        assert policy.effective_cap(9.9) == 200.0
        assert policy.effective_cap(10.0) == 200.0

    def test_linear_ramp_to_floor(self):
        policy = AgentPolicy(
            power_cap_node=200.0, issued_at=0.0, lease_ttl=10.0,
            safe_floor=140.0, ramp_seconds=30.0,
        )
        # 15 s past expiry = halfway down the 30 s ramp.
        assert policy.effective_cap(25.0) == pytest.approx(170.0)
        assert policy.effective_cap(40.0) == 140.0
        assert policy.effective_cap(1e6) == 140.0

    def test_decay_is_monotone_nonincreasing(self):
        policy = AgentPolicy(
            power_cap_node=220.0, issued_at=5.0, lease_ttl=8.0,
            safe_floor=150.0, ramp_seconds=20.0,
        )
        caps = [policy.effective_cap(t) for t in np.linspace(0.0, 60.0, 241)]
        assert all(b <= a for a, b in zip(caps, caps[1:]))

    def test_floor_above_cap_never_raises(self):
        policy = AgentPolicy(
            power_cap_node=180.0, issued_at=0.0, lease_ttl=5.0,
            safe_floor=250.0, ramp_seconds=10.0,
        )
        for now in (0.0, 7.0, 100.0):
            assert policy.effective_cap(now) == 180.0

    def test_zero_ramp_drops_straight_to_floor(self):
        policy = AgentPolicy(
            power_cap_node=200.0, issued_at=0.0, lease_ttl=5.0,
            safe_floor=140.0, ramp_seconds=0.0,
        )
        assert policy.effective_cap(5.0) == 200.0
        assert policy.effective_cap(5.1) == 140.0

    def test_validation(self):
        with pytest.raises(ValueError):
            AgentPolicy(power_cap_node=200.0, lease_ttl=0.0)
        with pytest.raises(ValueError):
            AgentPolicy(power_cap_node=200.0, ramp_seconds=-1.0)


# --------------------------------------------------------------------------
# Job tier: the endpoint dead-man switch and degraded autonomy.
# --------------------------------------------------------------------------


class TestEndpointLease:
    def test_leased_budget_arms_agent_policies(self):
        endpoint, geopm, link = make_endpoint(lease_ramp_seconds=20.0)
        link.send_down(leased_budget(200.0, ttl=10.0), 0.0)
        endpoint.step(0.0)
        policy = geopm.take_policy()
        assert policy.power_cap_node == 200.0
        assert policy.lease_ttl == 10.0
        assert policy.ramp_seconds == 20.0
        assert policy.safe_floor == 140.0  # the job's p_min

    def test_leaseless_budget_leaves_legacy_policy(self):
        endpoint, geopm, link = make_endpoint()
        link.send_down(BudgetMessage("j", 200.0, 0.0), 0.0)
        endpoint.step(0.0)
        policy = geopm.take_policy()
        assert policy.lease_ttl is None
        assert not endpoint.degraded

    def test_policy_refreshed_every_step_while_leased(self):
        # The agents' own dead-man stays armed-but-quiet only if the
        # endpoint re-stamps issued_at every control period.
        endpoint, geopm, link = make_endpoint()
        link.send_down(leased_budget(200.0, ttl=30.0), 0.0)
        endpoint.step(0.0)
        geopm.take_policy()
        endpoint.step(5.0)
        policy = geopm.take_policy()
        assert policy is not None and policy.issued_at == 5.0

    def test_expiry_enters_degraded_and_decays_to_floor(self):
        endpoint, geopm, link = make_endpoint(lease_ramp_seconds=20.0)
        link.send_down(leased_budget(200.0, ttl=10.0), 0.0)
        caps = {}
        for t in np.arange(0.0, 41.0, 1.0):
            endpoint.step(float(t))
            policy = geopm.take_policy()
            if policy is not None:
                caps[float(t)] = policy.power_cap_node
        assert endpoint.degraded
        assert endpoint.lease_expiries == 1
        # Still at the budget through expiry, at the floor after the ramp.
        assert caps[10.0] == 200.0
        assert caps[max(caps)] == 140.0
        # Never raises on the way down.
        ordered = [caps[t] for t in sorted(caps)]
        assert all(b <= a for a, b in zip(ordered, ordered[1:]))
        # Fully decayed within ttl + ramp of the last contact.
        decayed_by = min(t for t, c in caps.items() if c == 140.0)
        assert decayed_by <= 10.0 + 20.0 + 1.0

    def test_budget_receipt_exits_degraded(self):
        endpoint, geopm, link = make_endpoint(lease_ramp_seconds=10.0)
        link.send_down(leased_budget(200.0, ttl=5.0), 0.0)
        for t in range(0, 20):
            endpoint.step(float(t))
            geopm.take_policy()
        assert endpoint.degraded
        link.send_down(leased_budget(210.0, t=20.0, ttl=5.0), 20.0)
        endpoint.step(20.0)
        assert not endpoint.degraded
        assert endpoint.degraded_seconds > 0.0
        assert geopm.take_policy().power_cap_node == 210.0

    def test_armed_from_birth_without_any_budget(self):
        # An endpoint admitted mid-partition never hears from the head: it
        # must still decay from p_max rather than sit uncapped forever.
        endpoint, geopm, link = make_endpoint(
            lease_ttl=5.0, lease_ramp_seconds=10.0
        )
        last = None
        for t in range(0, 25):
            endpoint.step(float(t))
            policy = geopm.take_policy()
            if policy is not None:
                last = policy.power_cap_node
        assert endpoint.degraded
        assert last == 140.0

    def test_degraded_suppresses_dither(self):
        endpoint, geopm, link = make_endpoint(
            feedback_enabled=True, lease_ramp_seconds=5.0
        )
        link.send_down(leased_budget(200.0, ttl=5.0), 0.0)
        caps = []
        for t in range(0, 40):
            endpoint.step(float(t))
            policy = geopm.take_policy()
            if policy is not None:
                caps.append(policy.power_cap_node)
        # Once fully decayed the cap pins to the floor — no ±6 % excitation.
        assert caps[-1] == 140.0
        tail = [c for c in caps if c == 140.0]
        assert len(tail) >= 1 and max(caps[caps.index(140.0):]) == 140.0

    def test_rehello_reports_degraded_history(self):
        endpoint, geopm, link = make_endpoint(lease_ramp_seconds=5.0)
        link.send_down(leased_budget(200.0, ttl=5.0), 0.0)
        for t in range(0, 15):
            endpoint.step(float(t))
        link.recv_up(15.0)  # drain the original HELLO + statuses
        fresh = TcpLink(latency=0.0)
        endpoint.reconnect(fresh)
        endpoint.step(16.0)
        hello = [m for m in fresh.recv_up(16.0) if isinstance(m, HelloMessage)]
        assert len(hello) == 1
        assert hello[0].degraded_seconds > 0.0

    def test_lease_clears_when_head_stops_leasing(self):
        endpoint, geopm, link = make_endpoint()
        link.send_down(leased_budget(200.0, ttl=5.0), 0.0)
        endpoint.step(0.0)
        link.send_down(BudgetMessage("j", 190.0, 1.0), 1.0)  # no lease_ttl
        endpoint.step(1.0)
        for t in range(2, 30):
            endpoint.step(float(t))
        assert not endpoint.degraded  # lease cleared; legacy hold-last rules


# --------------------------------------------------------------------------
# Reliable messaging: ack/retry, dedupe, and the partition detector.
# --------------------------------------------------------------------------


def make_reliable_pair():
    link = TcpLink(latency=0.0)
    cluster = ReliableLink(link, "cluster", seed=1, name="L")
    job = ReliableLink(link, "job", seed=2, name="L")
    return cluster, job, link


class TestReliableLink:
    def test_round_trip_and_ack_clears_outstanding(self):
        cluster, job, _ = make_reliable_pair()
        cluster.send_down("cap", 0.0)
        assert job.recv_down(0.0) == ["cap"]
        cluster.recv_up(0.0)  # consumes the batched ack
        assert cluster.acked == 1
        assert not cluster._outstanding

    def test_duplicates_are_suppressed_but_reacked(self):
        cluster, job, link = make_reliable_pair()
        link.send_down(Envelope(seq=0, payload="x"), 0.0)
        link.send_down(Envelope(seq=0, payload="x"), 0.0)
        assert job.recv_down(0.0) == ["x"]
        assert job.duplicates == 1
        # Both copies were acked — the original ack may be the lost frame.
        acks = [f for f in link.recv_up(0.0) if isinstance(f, Ack)]
        assert acks and acks[0].seqs == (0, 0)

    def test_bare_payload_passthrough(self):
        cluster, job, link = make_reliable_pair()
        link.send_down("legacy", 0.0)
        assert job.recv_down(0.0) == ["legacy"]

    def test_out_of_order_delivery_dedupes_by_floor_and_set(self):
        cluster, job, link = make_reliable_pair()
        for seq in (2, 0, 1, 2, 0):
            link.send_down(Envelope(seq=seq, payload=seq), 0.0)
        assert job.recv_down(0.0) == [2, 0, 1]
        assert job.duplicates == 2
        assert job._cum_floor == 2 and not job._seen

    def test_retransmit_until_partition_declared_then_heal(self):
        cluster, job, link = make_reliable_pair()
        link.down.partitioned = True
        link.up.partitioned = True
        cluster.send_down("cap", 0.0)
        t = 0.0
        while cluster.partitioned_since is None and t < 120.0:
            t += 2.0
            cluster.recv_up(t)
        assert cluster.partitioned_since is not None
        assert cluster.retransmits >= reliable.PARTITION_ATTEMPTS
        assert isinstance(cluster.faults[0], PartitionStart)
        declared_at = cluster.partitioned_since
        # Heal the wire; the next retransmit + ack round closes the outage.
        link.down.partitioned = False
        link.up.partitioned = False
        healed_at = None
        while healed_at is None and t < 300.0:
            t += 2.0
            cluster.recv_up(t)
            assert job.recv_down(t) in ([], ["cap"])
            if cluster.partitioned_since is None and len(cluster.faults) == 2:
                healed_at = t
        end = cluster.faults[1]
        assert isinstance(end, PartitionEnd)
        assert end.outage_seconds == pytest.approx(healed_at - declared_at)

    def test_window_wrap_inherits_delivery_debt(self):
        # A sender busy enough to supersede every envelope before it reaches
        # PARTITION_ATTEMPTS (a window's worth of sends between pumps) must
        # still declare the partition: the replacement inherits the evicted
        # envelope's attempts.
        cluster, job, link = make_reliable_pair()
        link.down.partitioned = True
        link.up.partitioned = True
        t = 0.0
        while cluster.partitioned_since is None and t < 120.0:
            for i in range(reliable.WINDOW):
                cluster.send_down(f"cap@{t}#{i}", t)
            t += 2.0
            cluster.recv_up(t)
        assert cluster.superseded > 0
        assert cluster.partitioned_since is not None

    def test_ack_resets_partition_evidence(self):
        # Baseline loss accumulates attempts; an ack for *any* envelope
        # proves the link alive and must zero the evidence on the rest.
        cluster, job, link = make_reliable_pair()
        cluster.send_down("a", 0.0)
        cluster.send_down("b", 0.0)
        for entry in cluster._outstanding.values():
            # One retransmit away from a declaration.
            entry.attempts = reliable.PARTITION_ATTEMPTS - 1
        link.send_up(Ack(seqs=(0,)), 1.0)
        cluster.recv_up(1.0)
        assert [e.attempts for e in cluster._outstanding.values()] == [0]

    def test_window_bounds_outstanding(self):
        cluster, job, link = make_reliable_pair()
        link.down.partitioned = True
        for i in range(reliable.WINDOW + 6):
            cluster.send_down(i, float(i))
        assert len(cluster._outstanding) == reliable.WINDOW
        assert cluster.superseded == 6

    def test_side_verb_guards(self):
        cluster, job, _ = make_reliable_pair()
        with pytest.raises(RuntimeError):
            cluster.send_up("x", 0.0)
        with pytest.raises(RuntimeError):
            cluster.recv_down(0.0)
        with pytest.raises(RuntimeError):
            job.send_down("x", 0.0)
        with pytest.raises(RuntimeError):
            job.recv_up(0.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            ReliableLink(TcpLink(latency=0.0), "sideways")
        # The tuning is constants now, inside the ranges the checks enforced.
        assert reliable.WINDOW >= 1 and reliable.PARTITION_ATTEMPTS >= 1
        assert reliable.BASE_BACKOFF > 0.0
        assert 0.0 <= reliable.JITTER < 1.0

    def test_backoff_is_exponential_and_capped(self):
        cluster, _, _ = make_reliable_pair()
        jitter, base, ceiling = reliable.JITTER, reliable.BASE_BACKOFF, reliable.MAX_BACKOFF
        for attempts in range(8):
            raw = min(base * 2.0**attempts, ceiling)
            assert raw * (1 - jitter) <= cluster._backoff(attempts) <= raw * (1 + jitter)
        assert base * 2.0**7 > ceiling  # the last rows were capped

    def test_seeded_jitter_is_reproducible(self):
        link = TcpLink(latency=0.0)
        a = ReliableLink(link, "cluster", seed=9)
        b = ReliableLink(TcpLink(latency=0.0), "cluster", seed=9)
        assert [a._backoff(i) for i in range(5)] == [b._backoff(i) for i in range(5)]


#: What a scenario step does, sends weighted so the window wraps.
LINK_OPS = (
    ["send_down"] * 4 + ["send_up"] * 3 + ["recv_up"] * 3 + ["recv_down"] * 3
    + ["latency_down", "latency_up", "cut_down", "cut_up"]
)


def _drive(cls, seed: int, loss: float, ops) -> dict:
    """Run one scenario on a link pair of ``cls``; everything it observed."""
    link = TcpLink(latency=0.05, drop_probability=loss, seed=seed)
    cluster = cls(link, "cluster", seed=seed + 1, name="L")
    job = cls(link, "job", seed=seed + 2, name="L")
    seen, now = [], 0.0
    for i, (op, dt, value) in enumerate(ops):
        now += dt
        if op == "send_down":
            seen.append(cluster.send_down(("cap", i), now))
        elif op == "send_up":
            seen.append(job.send_up(("status", i), now))
        elif op == "recv_up":
            seen.append(cluster.recv_up(now))
        elif op == "recv_down":
            seen.append(job.recv_down(now))
        elif op.startswith("latency_"):
            getattr(link, op[8:]).latency = value
        else:  # a partition starts or ends on one direction
            channel = getattr(link, op[4:])
            channel.partitioned = not channel.partitioned
    sides = {
        name: (
            side.retransmits, side.superseded, side.duplicates, side.acked,
            side.partitioned_since, side.faults, side._rng.bit_generator.state,
        )
        for name, side in (("cluster", cluster), ("job", job))
    }
    channels = {
        name: (ch.sent, ch.dropped, ch.delivered, ch.drop_reasons, ch._rng.bit_generator.state)
        for name, ch in (("down", link.down), ("up", link.up))
    }
    return {"seen": seen, "sides": sides, "channels": channels}


class TestReliableLinkEqualsReference:
    """The link's receive skips the retransmit walk before the earliest
    retry is due and the partition scan on a pump that sent nothing;
    ``tests/reliable_reference.py`` is the link before that."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**31),
        loss=st.sampled_from([0.0, 0.1, 0.4]),
        ops=st.lists(
            st.tuples(
                st.sampled_from(LINK_OPS),
                st.sampled_from([0.0, 0.5, 1.0, 3.0, 7.0]),
                st.sampled_from([0.0, 0.05, 1.5, 6.0]),
            ),
            max_size=150,
        ),
    )
    def test_property_same_frames_draws_and_counts(self, seed, loss, ops):
        ours = _drive(ReliableLink, seed, loss, ops)
        assert ours == _drive(ReferenceLink, seed, loss, ops)

    def test_the_scenarios_reach_every_path(self):
        """One fixed scenario shows the property's ops wrap the window,
        retransmit, and declare and heal a partition."""
        ops = (
            [("cut_down", 0.0, 0.0)]
            + [("send_down", 1.0, 0.0)] * (reliable.WINDOW + 2)
            + [("recv_up", 7.0, 0.0)] * 6
            + [("cut_down", 0.0, 0.0), ("recv_up", 40.0, 0.0)]
            + [("recv_down", 1.0, 0.0), ("recv_up", 1.0, 0.0)]
        )
        ours = _drive(ReliableLink, 5, 0.0, ops)
        assert ours == _drive(ReferenceLink, 5, 0.0, ops)
        retransmits, superseded, _, acked, _, faults, _ = ours["sides"]["cluster"]
        assert retransmits and superseded and acked
        assert [type(f) for f in faults] == [PartitionStart, PartitionEnd]


# --------------------------------------------------------------------------
# The overshoot breaker state machine.
# --------------------------------------------------------------------------


class TestPowerBreaker:
    def test_trips_only_on_consecutive_strikes(self):
        b = PowerBreaker(margin=0.1)
        for _ in range(TRIP_ROUNDS - 1):
            b.observe(1200.0, 1000.0)
        b.observe(1000.0, 1000.0)  # clean round resets the streak
        for _ in range(TRIP_ROUNDS - 1):
            b.observe(1200.0, 1000.0)
        assert b.state == "closed" and not b.tripped
        b.observe(1200.0, 1000.0)
        assert b.state == "open" and b.tripped and b.trips == 1

    def test_margin_is_respected(self):
        b = PowerBreaker(margin=0.1)
        for _ in range(TRIP_ROUNDS):
            b.observe(1099.0, 1000.0)  # under target*(1+margin): clean
        assert b.state == "closed"
        for _ in range(TRIP_ROUNDS):
            b.observe(1101.0, 1000.0)
        assert b.state == "open"

    def test_open_to_half_open_to_closed(self):
        b = tripped_breaker()
        for _ in range(RESET_ROUNDS - 1):
            b.observe(900.0, 1000.0)
        assert b.state == "open"
        b.observe(900.0, 1000.0)
        assert b.state == "half-open"
        for _ in range(CONFIRM_ROUNDS - 1):
            b.observe(900.0, 1000.0)
        assert b.state == "half-open"
        b.observe(900.0, 1000.0)
        assert b.state == "closed"
        assert b.trips == 1

    def test_half_open_strike_reopens_immediately(self):
        b = tripped_breaker()
        for _ in range(RESET_ROUNDS):
            b.observe(900.0, 1000.0)
        assert b.state == "half-open"
        b.observe(2000.0, 1000.0)
        assert b.state == "open" and b.trips == 2

    def test_dirty_rounds_reset_reset_progress(self):
        b = tripped_breaker()
        for _ in range(RESET_ROUNDS - 1):
            b.observe(900.0, 1000.0)
        b.observe(2000.0, 1000.0)  # violation while open: start over
        for _ in range(RESET_ROUNDS - 1):
            b.observe(900.0, 1000.0)
        assert b.state == "open"
        b.observe(900.0, 1000.0)
        assert b.state == "half-open"

    def test_nonpositive_target_is_ignored(self):
        b = PowerBreaker(margin=0.0)
        b.observe(1e9, 0.0)
        b.observe(1e9, -5.0)
        assert b.state == "closed" and b.strikes == 0

    def test_gauge_values(self):
        b = PowerBreaker(margin=0.1)
        assert b.gauge_value == 0
        for _ in range(TRIP_ROUNDS):
            b.observe(2000.0, 1000.0)
        assert b.gauge_value == 2
        for _ in range(RESET_ROUNDS):
            b.observe(900.0, 1000.0)
        assert b.gauge_value == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            PowerBreaker(margin=-0.1)
        # The round counts are constants, inside the range the checks enforced.
        assert min(TRIP_ROUNDS, RESET_ROUNDS, CONFIRM_ROUNDS) >= 1


def tripped_breaker() -> PowerBreaker:
    b = PowerBreaker(margin=0.1)
    for _ in range(TRIP_ROUNDS):
        b.observe(2000.0, 1000.0)
    assert b.state == "open"
    return b


# --------------------------------------------------------------------------
# Cluster tier: degraded re-HELLO warm merge.
# --------------------------------------------------------------------------


class TestDegradedRejoin:
    def test_hello_with_model_warm_merges(self):
        from repro.budget import EvenSlowdownBudgeter
        from repro.core.cluster_manager import ClusterPowerManager
        from repro.modeling.classifier import JobClassifier
        from repro.core.framework import precharacterized_models

        manager = ClusterPowerManager(
            budgeter=EvenSlowdownBudgeter(),
            classifier=JobClassifier(precharacterized_models()),
            total_nodes=4,
        )
        link = TcpLink(latency=0.0)
        manager.register_link(link)
        m = QuadraticPowerModel.from_anchors(2.0, 1.4, 140.0, 280.0)
        link.send_up(
            HelloMessage(
                "j1", "bt", 2, 0.0,
                model_a=m.a, model_b=m.b, model_c=m.c, model_r2=0.97,
                degraded_seconds=120.0,
            ),
            0.0,
        )
        manager.step(0.0, 840.0, math.nan)
        assert manager.hello_merges == 1
        assert manager.jobs["j1"].online_model is not None
        assert any("warm-merged" in e for e in manager.events)

    def test_plain_hello_does_not_merge(self):
        from repro.budget import EvenSlowdownBudgeter
        from repro.core.cluster_manager import ClusterPowerManager
        from repro.modeling.classifier import JobClassifier
        from repro.core.framework import precharacterized_models

        manager = ClusterPowerManager(
            budgeter=EvenSlowdownBudgeter(),
            classifier=JobClassifier(precharacterized_models()),
            total_nodes=4,
        )
        link = TcpLink(latency=0.0)
        manager.register_link(link)
        link.send_up(HelloMessage("j1", "bt", 2, 0.0), 0.0)
        manager.step(0.0, 840.0, math.nan)
        assert manager.hello_merges == 0


# --------------------------------------------------------------------------
# Fault vocabulary and schedule validation.
# --------------------------------------------------------------------------


class TestScheduleValidation:
    def test_negative_rate_names_the_field(self):
        with pytest.raises(ValueError, match="NodeCrash rate"):
            FaultSchedule.random(
                3600.0, seed=0, rates={NodeCrash(time=0.0): -1.0})
        with pytest.raises(ValueError, match="MeterOutage rate"):
            FaultSchedule.random(
                3600.0, seed=0, rates={MeterOutage(time=0.0): -0.5})

    def test_nonpositive_duration_names_the_field(self):
        with pytest.raises(ValueError, match="duration"):
            LinkDegradation(time=0.0, duration=0.0)

    def test_burst_drop_bounds(self):
        with pytest.raises(ValueError, match="drop_probability"):
            LinkDegradation(time=0.0, drop_probability=1.5)

    def test_bad_node_count(self):
        with pytest.raises(ValueError, match="num_nodes"):
            FaultSchedule.random(3600.0, seed=0, num_nodes=0, rates={})

    def test_partition_event_validation(self):
        with pytest.raises(ValueError):
            NetworkPartition(time=10.0, duration=0.0)


# --------------------------------------------------------------------------
# End to end: the safety bound under a partition injected mid-downward-ramp.
# --------------------------------------------------------------------------

LEASE_TTL = 15.0
LEASE_RAMP = 20.0
SLACK = 15.0  # control-period discretisation + agent-tree propagation
NUM_NODES = 4


def run_partitioned_system(*, partition, seed=11, lease=True):
    from repro.budget import EvenSlowdownBudgeter

    cfg = AnorConfig(
        num_nodes=NUM_NODES,
        seed=seed,
        lease_ttl=LEASE_TTL if lease else None,
        lease_ramp_seconds=LEASE_RAMP,
        reliable_messaging=lease,
    )
    # The dangerous direction: the target steps DOWN while the head is
    # unreachable, so stale caps are sized for the higher, stale target.
    target = SteppedTarget([0.0, 150.0, 180.0], [840.0, 760.0, 680.0])
    schedule = (
        FaultSchedule([partition]) if partition is not None else None
    )
    system = AnorSystem(
        budgeter=EvenSlowdownBudgeter(),
        target_source=target,
        config=cfg,
        fault_schedule=schedule,
    )
    system.submit_now("bt-0", "bt")
    system.submit_now("sp-0", "sp")
    return system.run(until_idle=True, max_time=7200.0), target


class TestPartitionSafetyBound:
    def test_overshoot_bounded_through_mid_ramp_partition(self):
        # Partition opens at t=160 — inside the 150→180 downward staircase —
        # and outlasts both remaining steps.
        partition = NetworkPartition(time=160.0, duration=180.0)
        result, _ = run_partitioned_system(partition=partition)
        floor_power = NUM_NODES * P_NODE_MIN
        overshoot = longest_over_limit(
            result.power_trace, floor=floor_power, tol=0.10, after=160.0
        )
        assert overshoot <= LEASE_TTL + LEASE_RAMP + SLACK
        # The drill actually exercised the machinery: the reliable layer
        # declared the partition, and every job still finished.
        assert any(isinstance(f, PartitionStart) for f in result.partition_events)
        assert {t.job_id for t in result.completed} == {"bt-0", "sp-0"}

    def test_partition_heals_and_link_recovers(self):
        partition = NetworkPartition(time=160.0, duration=120.0)
        result, _ = run_partitioned_system(partition=partition)
        starts = [f for f in result.partition_events if isinstance(f, PartitionStart)]
        ends = [f for f in result.partition_events if isinstance(f, PartitionEnd)]
        assert starts and ends
        assert all(e.outage_seconds > 0 for e in ends)

    def test_partitioned_run_is_deterministic(self):
        partition = NetworkPartition(time=160.0, duration=120.0)
        a, _ = run_partitioned_system(partition=partition, seed=11)
        b, _ = run_partitioned_system(partition=partition, seed=11)
        assert np.array_equal(a.power_trace, b.power_trace)
        assert [t.job_id for t in a.completed] == [t.job_id for t in b.completed]

    def test_knobs_off_produces_no_partition_events(self):
        result, _ = run_partitioned_system(partition=None, lease=False)
        assert result.partition_events == []
        assert {t.job_id for t in result.completed} == {"bt-0", "sp-0"}
