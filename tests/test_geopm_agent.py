"""Tests for the power-governor agents: one array pass over a cluster's
agent columns (``EmulatedCluster.agents``), held to the per-agent loop it
replaced (``tests/geopm_reference.py``)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geopm.agent import FANOUT, AgentPolicy, AgentSample
from repro.geopm.comm_tree import AgentTree
from repro.geopm.endpoint import Endpoint
from repro.geopm.msr import MSR_PKG_POWER_LIMIT, MsrBank
from repro.geopm.signals import SignalNames
from repro.hwsim.cluster import EmulatedCluster
from repro.workloads.nas import PACKAGE_MIN_POWER, PACKAGE_TDP, JobType
from tests.geopm_reference import AgentGroup, Mailbox, PlatformIO

LONG = JobType(
    name="long", nas_name="long", nodes=1, epochs=10_000, t_uncapped=1e6,
    sensitivity=1.2, p_demand=250.0, noise=0.01,
)


def make_group(num_nodes):
    """A cluster running one ``num_nodes``-wide job, and the job."""
    cluster = EmulatedCluster(num_nodes, seed=0)
    job = cluster.start_job("test", LONG.with_nodes(num_nodes))
    return cluster, job


def step(cluster, dt=1.0):
    cluster.clock.advance(dt)
    cluster.agents.step(cluster.clock.now)
    return cluster.clock.now


def caps(job):
    return [node.power_cap for node in job.nodes]


class TestAgentPolicy:
    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError, match="positive"):
            AgentPolicy(power_cap_node=0.0)


class TestSingleAgent:
    def test_applies_delivered_policy(self):
        cluster, job = make_group(1)
        job.endpoint.write_policy(AgentPolicy(power_cap_node=200.0))
        step(cluster)
        assert job.nodes[0].power_cap == 200.0
        assert job.endpoint.read_sample().applied_cap == 200.0

    def test_no_policy_keeps_defaults(self):
        cluster, job = make_group(1)
        step(cluster)
        assert job.nodes[0].power_cap == 280.0

    def test_root_reports_epochs(self):
        cluster, job = make_group(1)
        job.profiler.prof_epoch(0)
        step(cluster)
        assert job.endpoint.read_sample().epoch_count == 1

    def test_non_root_reports_zero_epochs(self):
        cluster, job = make_group(2)
        job.profiler.set_rank_progress(0, 1)
        job.profiler.set_rank_progress(1, 1)
        step(cluster)
        assert cluster.agents.sample(job.nodes[1].node_id).epoch_count == 0
        assert cluster.agents.sample(job.root).epoch_count == 1


class TestGroupPolicyPropagation:
    def test_policy_reaches_all_nodes_within_height_steps(self):
        cluster, job = make_group(16)
        job.endpoint.write_policy(AgentPolicy(power_cap_node=180.0))
        # Height-2 tree: root applies at step 1, leaves by step 3.
        height = AgentTree(16, fanout=FANOUT).height
        assert height == 2
        for _ in range(1 + height):
            step(cluster)
        assert all(cap == pytest.approx(180.0, abs=0.5) for cap in caps(job))

    def test_staleness_one_hop_per_level(self):
        cluster, job = make_group(3)
        job.endpoint.write_policy(AgentPolicy(power_cap_node=150.0))
        step(cluster)
        # Root applied it; children receive it for the next step.
        assert caps(job)[0] == pytest.approx(150.0, abs=0.5)
        assert caps(job)[1] == 280.0
        step(cluster)
        assert caps(job)[1] == pytest.approx(150.0, abs=0.5)

    def test_last_policy_wins(self):
        cluster, job = make_group(1)
        job.endpoint.write_policy(AgentPolicy(power_cap_node=150.0))
        job.endpoint.write_policy(AgentPolicy(power_cap_node=260.0))
        step(cluster)
        assert caps(job)[0] == pytest.approx(260.0, abs=0.5)


class TestGroupSampling:
    def test_root_sample_published_to_endpoint(self):
        cluster, job = make_group(2)
        assert job.endpoint.read_sample() is None
        now = step(cluster)
        sample = job.endpoint.read_sample()
        assert sample == cluster.agents.sample(job.root)
        assert sample.timestamp == now

    def test_aggregated_nodes_count_converges(self):
        cluster, job = make_group(4)
        for _ in range(4):  # allow child samples to propagate up
            step(cluster)
        assert job.endpoint.read_sample().nodes == 4

    def test_power_aggregates_subtree(self):
        cluster, job = make_group(2)
        # Deposit energy on both nodes, then step twice so the child's
        # sample reaches the root aggregate.
        for _ in range(3):
            for node in job.nodes:
                for bank in node.banks:
                    bank.accumulate_energy(50.0)
            step(cluster)
        sample = job.endpoint.read_sample()
        # Each node dissipates 100 J/s => two nodes ≈ 200 W (child lags 1 step).
        assert sample.power == pytest.approx(200.0, rel=0.2)

    def test_epoch_count_comes_from_root_profiler(self):
        cluster, job = make_group(2)
        job.profiler.set_rank_progress(0, 3)
        job.profiler.set_rank_progress(1, 2)
        step(cluster)
        assert job.endpoint.read_sample().epoch_count == 2

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            EmulatedCluster(2, seed=0).agents.start(np.array([], dtype=int))


class TestEndpoint:
    def test_take_policy_consumes(self):
        ep = Endpoint()
        ep.write_policy(AgentPolicy(power_cap_node=100.0))
        assert ep.has_pending_policy
        assert ep.take_policy().power_cap_node == 100.0
        assert ep.take_policy() is None

    def test_sample_overwrites(self):
        ep = Endpoint()
        s1 = AgentSample(1.0, 10.0, 5.0, 1, 1, 280.0)
        s2 = AgentSample(2.0, 20.0, 15.0, 2, 1, 280.0)
        ep.publish_sample(s1)
        ep.publish_sample(s2)
        assert ep.read_sample() == s2

    def test_policy_round_trips_through_its_cells(self):
        ep = Endpoint()
        for policy in (
            AgentPolicy(210.0, issued_at=3.0),
            AgentPolicy(150.0, issued_at=4.0, lease_ttl=20.0, safe_floor=140.0, ramp_seconds=0.0),
            AgentPolicy(180.0, lease_ttl=5.0),
        ):
            ep.write_policy(policy)
            assert ep.take_policy() == policy


class TestInheritedBehaviour:
    """Two behaviours of the per-agent loop the pass keeps, pinned.  Both
    reach the manager's dormant/active split through a job's first
    ``measured_power`` (ROADMAP)."""

    def test_power_baseline_belongs_to_the_node(self):
        # A new job's first CPU_POWER averages over the gap since the
        # previous tenant's last read on that node, not 0 W.
        cluster = EmulatedCluster(1, seed=0)
        bank = cluster.nodes[0].banks[0]
        first = cluster.start_job("a", LONG)
        step(cluster)
        bank.accumulate_energy(30.0)
        step(cluster)
        assert first.endpoint.read_sample().power == pytest.approx(30.0, rel=1e-6)
        cluster.kill_job("a")
        bank.accumulate_energy(400.0)  # 8 s with no job: nobody reads
        cluster.clock.advance(8.0)
        second = cluster.start_job("b", LONG)
        step(cluster)
        assert second.endpoint.read_sample().power == pytest.approx(400.0 / 9.0, rel=1e-6)

    def test_first_period_root_sample_counts_the_root_alone(self):
        cluster, job = make_group(3)
        for node in job.nodes:
            node.banks[0].accumulate_energy(10.0)
        step(cluster)
        sample = job.endpoint.read_sample()
        own = cluster.agents.sample(job.root)
        assert sample.nodes == 1  # children's samples reach it next period
        assert sample.energy == pytest.approx(10.0, rel=1e-4) and own == sample
        step(cluster)
        assert job.endpoint.read_sample().nodes == 3


# ---------------------------------------------------------------- oracle


class Mirror:
    """A cluster and, beside it, the per-agent reference on banks of its own:
    one reference PlatformIO per node for the run (the baseline is the
    node's), and one reference group per running job."""

    NODES = 96

    def __init__(self, offset: float) -> None:
        self.cluster = EmulatedCluster(self.NODES, seed=0)
        self.clock = self.cluster.clock
        self.banks = [
            [MsrBank(tdp_watts=PACKAGE_TDP, min_power_watts=PACKAGE_MIN_POWER) for _ in range(2)]
            for _ in range(self.NODES)
        ]
        self.pios = [PlatformIO(b, clock_fn=lambda: self.clock.now) for b in self.banks]
        self.deposit([offset] * self.NODES, [offset] * self.NODES)  # counters near the wrap
        self.groups: dict[str, tuple[AgentGroup, Mailbox]] = {}
        self.serial = 0

    def deposit(self, first, second) -> None:
        for node, ours, a, b in zip(self.cluster.nodes, self.banks, first, second):
            for bank_pair, joules in ((0, a), (1, b)):
                node.banks[bank_pair].accumulate_energy(joules)
                ours[bank_pair].accumulate_energy(joules)

    def start(self, nodes: list[int]) -> None:
        self.serial += 1
        job_id = f"j{self.serial}"
        job = self.cluster.start_job(
            job_id, LONG.with_nodes(len(nodes)), nodes=[self.cluster.nodes[i] for i in nodes]
        )
        mailbox = Mailbox()
        group = AgentGroup([self.pios[i] for i in nodes], lambda: job.profiler.epoch_count, mailbox)
        self.groups[job_id] = (group, mailbox)

    def kill(self, job_id: str) -> None:
        self.cluster.kill_job(job_id)
        del self.groups[job_id]

    def write(self, job_id: str, policy: AgentPolicy) -> None:
        self.cluster.running[job_id].endpoint.write_policy(policy)
        self.groups[job_id][1].policy = policy

    def step(self) -> None:
        now = self.clock.now
        self.cluster.agents.step(now)
        for group, _ in self.groups.values():
            group.step(now)

    def read_power(self, node: int) -> None:
        ours = self.cluster.nodes[node].pio.read_signal(SignalNames.CPU_POWER)
        assert ours == self.pios[node].sample()[0]

    def assert_equal(self) -> None:
        for job_id, (_, mailbox) in self.groups.items():
            sample = self.cluster.running[job_id].endpoint.read_sample()
            assert (sample is None) == (mailbox.sample is None)
            if sample is not None:
                assert tuple(sample) == tuple(mailbox.sample)
                assert list(map(type, sample)) == list(map(type, mailbox.sample))
        for node, ours in zip(self.cluster.nodes, self.banks):
            assert [b.read(MSR_PKG_POWER_LIMIT) for b in node.banks] == [
                b.read(MSR_PKG_POWER_LIMIT) for b in ours
            ]


class TestPassEqualsReference:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        offset=st.sampled_from([0.0, 65536.0 - 900.0, 65536.0 * 3 - 40.0]),
        first=st.integers(1, 80),
    )
    def test_property_pass_is_bit_identical_to_the_per_agent_loop(self, seed, offset, first):
        """Thirty agent periods of a seeded scenario: widths 1–80 at fanout 8
        (one- and two-level trees; ``first`` is the first job's), kills and
        starts on nodes an earlier job read, energy counters wrapping
        (``offset`` puts them near the 32-bit wrap), leases expiring mid-ramp
        with no refresh, policies at random periods, same-instant re-reads
        and direct PlatformIO reads between passes."""
        rng = np.random.default_rng(seed)
        mirror = Mirror(offset)
        width = first
        for period in range(30):
            running = list(mirror.groups)
            for job_id in running:
                if rng.random() < 0.12:
                    mirror.kill(job_id)
            idle = [n.node_id for n in mirror.cluster.idle_nodes()]
            while idle and rng.random() < 0.6:
                width = min(width, len(idle))
                mirror.start(rng.choice(idle, width, replace=False).tolist())
                idle = [n.node_id for n in mirror.cluster.idle_nodes()]
                width = int(rng.choice([1, 2, 3, 9, int(rng.integers(1, 81))]))
            for job_id in mirror.groups:
                if rng.random() < 0.35:
                    leased = rng.random() < 0.6
                    mirror.write(job_id, AgentPolicy(
                        power_cap_node=float(rng.uniform(100.0, 300.0)),
                        issued_at=mirror.clock.now - float(rng.choice([0.0, rng.uniform(0, 8)])),
                        lease_ttl=float(rng.uniform(0.5, 4.0)) if leased else None,
                        safe_floor=float(rng.uniform(120.0, 260.0)) if rng.random() < 0.9 else None,
                        ramp_seconds=float(rng.choice([0.0, 2.5, 7.0])),
                    ))
                job = mirror.cluster.running[job_id]
                rank = int(rng.integers(job.profiler.num_ranks))
                job.profiler.set_rank_progress(rank, job.profiler.rank_count(rank) + int(rng.integers(3)))
            mirror.deposit(rng.uniform(0.0, 600.0, Mirror.NODES), rng.uniform(0.0, 600.0, Mirror.NODES))
            for node in rng.choice(Mirror.NODES, int(rng.integers(3)), replace=False).tolist():
                mirror.read_power(node)
            mirror.clock.advance(float(rng.choice([0.0, 0.5, 1.0, 1.0, 3.0])))  # 0.0: a re-read
            mirror.step()
            mirror.assert_equal()
        assert all(math.isfinite(c) for c in mirror.cluster.caps())
