"""The agent tier's per-node, per-agent reference: the test oracle.

``EmulatedCluster.agents`` (a :class:`~repro.geopm.agent.JobAgentGroup`)
steps every agent of every running job in one array pass over the cluster's
node-indexed columns.  This module is the loop that pass replaced: one
``PlatformIO`` object per node reading its MSR banks, one
``PowerGovernorAgent`` per node of a job, a per-job group walking the
job's tree, and a per-job mailbox of policy and sample objects.  The
pass ≡ reference tests hold the two bit-identical.
"""

from __future__ import annotations

from typing import Sequence

from repro.geopm.agent import AgentPolicy, AgentSample
from repro.geopm.comm_tree import AgentTree
from repro.geopm.msr import MSR_PKG_ENERGY_STATUS, MsrBank, energy_counter_delta


class PlatformIO:
    """Per-node ``CPU_ENERGY``/``CPU_POWER``/cap access over MSR banks."""

    def __init__(self, msr_banks: Sequence[MsrBank], *, clock_fn) -> None:
        self._banks = list(msr_banks)
        self._clock_fn = clock_fn
        self._last_energy_raw = [b.read(MSR_PKG_ENERGY_STATUS) for b in self._banks]
        self._energy_joules = 0.0  # unwrapped, accumulated from deltas
        self._last_power_read: tuple[float, float] | None = None  # (time, energy)
        self._last_power_value = 0.0

    def _update_energy(self) -> None:
        for i, bank in enumerate(self._banks):
            raw = bank.read(MSR_PKG_ENERGY_STATUS)
            self._energy_joules += energy_counter_delta(self._last_energy_raw[i], raw)
            self._last_energy_raw[i] = raw

    def _read_power(self) -> float:
        """Average node power since the previous CPU_POWER read."""
        now = float(self._clock_fn())
        self._update_energy()
        energy = self._energy_joules
        if self._last_power_read is None:
            self._last_power_read = (now, energy)
            return 0.0
        t0, e0 = self._last_power_read
        dt = now - t0
        if dt <= 0:
            return self._last_power_value
        self._last_power_read = (now, energy)
        self._last_power_value = (energy - e0) / dt
        return self._last_power_value

    def sample(self) -> tuple[float, float, float]:
        """``(CPU_POWER, CPU_ENERGY, applied cap)``."""
        power = self._read_power()
        applied = sum(b.power_limit_watts for b in self._banks)
        return power, self._energy_joules, applied

    def write_cap(self, value: float) -> None:
        per_package = value / len(self._banks)
        for bank in self._banks:
            bank.set_power_limit_watts(per_package)

    def read_cap(self) -> float:
        return sum(b.power_limit_watts for b in self._banks)


def effective_cap(policy: AgentPolicy, now: float) -> float:
    """The cap ``policy`` enforces at ``now``: the dispatched cap inside its
    lease (or with none), then a linear ramp to ``min(safe_floor, cap)``
    over ``ramp_seconds``."""
    if policy.lease_ttl is None or policy.safe_floor is None:
        return policy.power_cap_node
    expired_for = now - (policy.issued_at + policy.lease_ttl)
    if expired_for <= 0:
        return policy.power_cap_node
    floor = min(policy.safe_floor, policy.power_cap_node)
    if policy.ramp_seconds <= 0 or expired_for >= policy.ramp_seconds:
        return floor
    frac = expired_for / policy.ramp_seconds
    return policy.power_cap_node - frac * (policy.power_cap_node - floor)


class Mailbox:
    """A job's single-slot policy and sample mailboxes, as objects."""

    def __init__(self) -> None:
        self.policy: AgentPolicy | None = None
        self.sample: AgentSample | None = None

    def take_policy(self) -> AgentPolicy | None:
        policy, self.policy = self.policy, None
        return policy


class PowerGovernorAgent:
    """One agent instance on one node of a job."""

    def __init__(self, platform_io: PlatformIO, *, is_root: bool, epochs=None) -> None:
        self.pio = platform_io
        self.epochs = epochs if is_root else None  # only the root reads epochs
        self.policy: AgentPolicy | None = None
        self._policy_inbox: AgentPolicy | None = None
        self._child_samples: dict[int, AgentSample] = {}

    def deliver_policy(self, policy: AgentPolicy) -> None:
        self._policy_inbox = policy

    def deliver_child_sample(self, child_index: int, sample: AgentSample) -> None:
        self._child_samples[child_index] = sample

    def step(self, now: float) -> AgentSample:
        """Apply policy, sample, aggregate last period's child samples."""
        if self._policy_inbox is not None:
            self.policy = self._policy_inbox
            self._policy_inbox = None
            self.pio.write_cap(effective_cap(self.policy, now))
        elif self.policy is not None and self.policy.lease_ttl is not None:
            effective = effective_cap(self.policy, now)
            if effective != self.pio.read_cap():
                self.pio.write_cap(effective)
        own_power, own_energy, applied = self.pio.sample()
        if self._child_samples:
            children = self._child_samples.values()
            power = own_power + sum(s.power for s in children)
            energy = own_energy + sum(s.energy for s in children)
            nodes = 1 + sum(s.nodes for s in children)
        else:
            power, energy, nodes = own_power, own_energy, 1
        epoch = self.epochs() if self.epochs is not None else 0
        return AgentSample(
            timestamp=now,
            power=power,
            energy=energy,
            epoch_count=epoch,
            nodes=nodes,
            applied_cap=applied,
        )


class AgentGroup:
    """One job's agents, its tree and its mailbox, stepped agent by agent."""

    def __init__(
        self, platform_ios: list[PlatformIO], epochs, mailbox: Mailbox, *, fanout: int = 8
    ) -> None:
        self.tree = AgentTree(len(platform_ios), fanout=fanout)
        self.mailbox = mailbox
        self.agents = [
            PowerGovernorAgent(pio, is_root=i == 0, epochs=epochs)
            for i, pio in enumerate(platform_ios)
        ]
        order = self.tree.breadth_first()
        self._order = order
        self._down = [
            (self.agents[i], [self.agents[c] for c in self.tree.children(i)])
            for i in order
            if not self.tree.is_leaf(i)
        ]
        self._up = [(i, self.agents[self.tree.parent(i)]) for i in order if i != 0]

    def step(self, now: float) -> AgentSample:
        """One control period for every agent; returns the root sample."""
        policy = self.mailbox.take_policy()
        if policy is not None:
            self.agents[0].deliver_policy(policy)
        # Each parent's previous policy moves one hop down before anyone steps.
        for agent, children in self._down:
            if agent.policy is not None:
                for child in children:
                    child.deliver_policy(agent.policy)
        samples = {i: self.agents[i].step(now) for i in self._order}
        for i, parent in self._up:
            parent.deliver_child_sample(i, samples[i])
        self.mailbox.sample = samples[0]
        return samples[0]
