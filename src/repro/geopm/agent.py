"""Power-governor agents: enforce caps, report epochs (paper §4.3).

One :class:`PowerGovernorAgent` runs per node of a job.  The paper modified
GEOPM's ``power_governor`` agent to write the epoch count to the endpoint;
agents on multi-node jobs relay policy down and samples up a balanced
communication tree, one hop per control period.  :class:`JobAgentGroup`
wires a job's agents, its tree, and its endpoint together and is what the
hardware-experiment harness steps every agent control period.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.geopm.comm_tree import AgentTree
from repro.geopm.endpoint import Endpoint
from repro.geopm.profiler import EpochProfiler
from repro.geopm.signals import ControlNames, PlatformIO

__all__ = ["AgentPolicy", "AgentSample", "PowerGovernorAgent", "JobAgentGroup"]


@dataclass(frozen=True)
class AgentPolicy:
    """Control message flowing down the tree: the per-node CPU power cap.

    With a ``lease_ttl`` the policy is a *lease*: past
    ``issued_at + lease_ttl`` the agent treats its controller as silent and
    decays the cap toward ``safe_floor`` over ``ramp_seconds`` (a dead-man
    switch for the case where the job endpoint itself dies).  ``None``
    (default) keeps the pre-lease hold-last-value behaviour.
    """

    power_cap_node: float
    issued_at: float = 0.0
    lease_ttl: float | None = None
    safe_floor: float | None = None
    ramp_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.power_cap_node <= 0:
            raise ValueError(f"power cap must be positive, got {self.power_cap_node}")
        if self.lease_ttl is not None and self.lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {self.lease_ttl}")
        if self.ramp_seconds < 0:
            raise ValueError(f"ramp_seconds must be ≥ 0, got {self.ramp_seconds}")

    def effective_cap(self, now: float) -> float:
        """Cap to enforce at time ``now``, honouring lease expiry.

        Inside the lease (or with no lease) this is the dispatched cap;
        past expiry it ramps linearly down to ``safe_floor`` over
        ``ramp_seconds`` and stays there.  Never *raises* the cap: a floor
        above the dispatched cap clamps to the dispatched cap.
        """
        if self.lease_ttl is None or self.safe_floor is None:
            return self.power_cap_node
        expired_for = now - (self.issued_at + self.lease_ttl)
        if expired_for <= 0:
            return self.power_cap_node
        floor = min(self.safe_floor, self.power_cap_node)
        if self.ramp_seconds <= 0 or expired_for >= self.ramp_seconds:
            return floor
        frac = expired_for / self.ramp_seconds
        return self.power_cap_node - frac * (self.power_cap_node - floor)


@dataclass(frozen=True)
class AgentSample:
    """Status message flowing up the tree.

    ``power`` and ``energy`` aggregate over the reporting subtree;
    ``epoch_count`` is the job-global count (all-ranks barrier), read at the
    root from the profiler.
    """

    timestamp: float
    power: float
    energy: float
    epoch_count: int
    nodes: int
    applied_cap: float


class PowerGovernorAgent:
    """One agent instance on one node of a job."""

    def __init__(
        self,
        platform_io: PlatformIO,
        *,
        tree_index: int,
        profiler: EpochProfiler | None = None,
    ) -> None:
        self.pio = platform_io
        self.tree_index = int(tree_index)
        self.profiler = profiler  # only the root agent reads epochs
        self.policy: AgentPolicy | None = None
        self._policy_inbox: AgentPolicy | None = None
        self._child_samples: dict[int, AgentSample] = {}
        self.last_sample: AgentSample | None = None

    # ---------------------------------------------------------- message I/O

    def deliver_policy(self, policy: AgentPolicy) -> None:
        """Deposit a policy to be applied on this agent's next step."""
        self._policy_inbox = policy

    def deliver_child_sample(self, child_index: int, sample: AgentSample) -> None:
        self._child_samples[child_index] = sample

    # ---------------------------------------------------------------- control

    def step(self, now: float) -> AgentSample:
        """One control-loop iteration: apply policy, sample, aggregate.

        Returns the aggregated sample for this agent's subtree (to be
        forwarded to the parent by the group).
        """
        if self._policy_inbox is not None:
            self.policy = self._policy_inbox
            self._policy_inbox = None
            self.pio.write_control(
                ControlNames.CPU_POWER_LIMIT_CONTROL,
                self.policy.effective_cap(now),
            )
        elif self.policy is not None and self.policy.lease_ttl is not None:
            # Leased policy with no refresh this period: the dead-man switch
            # re-evaluates every step so an expired lease keeps ramping the
            # cap down even when the endpoint above has gone silent.
            effective = self.policy.effective_cap(now)
            if effective != self.pio.read_control(
                ControlNames.CPU_POWER_LIMIT_CONTROL
            ):
                self.pio.write_control(
                    ControlNames.CPU_POWER_LIMIT_CONTROL, effective
                )
        own_power, own_energy, applied = self.pio.sample()
        if self._child_samples:
            children = self._child_samples.values()
            power = own_power + sum(s.power for s in children)
            energy = own_energy + sum(s.energy for s in children)
            nodes = 1 + sum(s.nodes for s in children)
        else:
            # Leaf agents (the vast majority) aggregate nothing.
            power, energy, nodes = own_power, own_energy, 1
        epoch = self.profiler.epoch_count if self.profiler is not None else 0
        sample = AgentSample(
            timestamp=now,
            power=power,
            energy=energy,
            epoch_count=epoch,
            nodes=nodes,
            applied_cap=applied,
        )
        self.last_sample = sample
        return sample


class JobAgentGroup:
    """A job's agents plus the tree and endpoint gluing them together.

    Stepping the group once is one agent control period: the root pulls any
    fresh policy from the endpoint, every agent applies the policy it
    received *last* period (one hop of staleness per tree level), and
    subtree-aggregated samples move one hop toward the root, where the final
    sample is published to the endpoint.
    """

    def __init__(
        self,
        platform_ios: list[PlatformIO],
        profiler: EpochProfiler,
        endpoint: Endpoint,
        *,
        fanout: int = 8,
    ) -> None:
        if not platform_ios:
            raise ValueError("a job needs at least one node")
        self.tree = AgentTree(len(platform_ios), fanout=fanout)
        self.endpoint = endpoint
        self.agents = [
            PowerGovernorAgent(
                pio,
                tree_index=i,
                profiler=profiler if i == 0 else None,
            )
            for i, pio in enumerate(platform_ios)
        ]
        # The tree never changes, so what a period walks is built once, in
        # breadth-first order: each agent that has children with them, and
        # each agent but the root with its parent.
        self._order = self.tree.breadth_first()
        self._down = [
            (self.agents[i], [self.agents[c] for c in self.tree.children(i)])
            for i in self._order
            if not self.tree.is_leaf(i)
        ]
        self._up = [
            (i, self.agents[self.tree.parent(i)]) for i in self._order if i != 0
        ]

    def step(self, now: float) -> AgentSample:
        """Run one control period for every agent; returns the root sample."""
        policy = self.endpoint.take_policy()
        if policy is not None:
            self.agents[0].deliver_policy(policy)
        # Forward the policy each parent applied *last* period one hop down,
        # before anyone steps: propagation costs one control period per tree
        # level (the root's fresh policy is still in its inbox, so children
        # see it only next period).
        for agent, children in self._down:
            parent_policy = agent.policy
            if parent_policy is not None:
                for child in children:
                    child.deliver_policy(parent_policy)
        samples = {i: self.agents[i].step(now) for i in self._order}
        # Samples move one hop per period: deposit this period's subtree
        # samples into parents for aggregation next period.
        for i, parent in self._up:
            parent.deliver_child_sample(i, samples[i])
        root_sample = samples[0]
        # The root's epoch count is authoritative; re-stamp aggregate nodes
        # to the job's true width once child samples have propagated.
        self.endpoint.publish_sample(root_sample)
        return root_sample

    @property
    def num_nodes(self) -> int:
        return len(self.agents)

    def applied_caps(self) -> list[float]:
        """Per-node caps currently programmed (for convergence tests)."""
        return [
            a.pio.read_control(ControlNames.CPU_POWER_LIMIT_CONTROL)
            for a in self.agents
        ]
