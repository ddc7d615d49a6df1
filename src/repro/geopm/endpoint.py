"""GEOPM endpoint interface: the root agent's mailbox (paper §3–§4).

The endpoint is the software interface at the root of the agent hierarchy
"that can be used to dynamically write new objectives and read summarized
state updates from agents".  In the paper the job-tier power modeler talks to
it over shared memory; here it is a pair of single-slot mailboxes with the
same last-writer-wins semantics shared memory gives you: the root agent's
inbox and subtree sample, cells of the agent tier's columns that the agents'
pass reads and writes (:class:`~repro.geopm.agent.JobAgentGroup`).
"""

from __future__ import annotations

import numpy as np

from repro.geopm.agent import SAMPLE_START, AgentPolicy, AgentSample

__all__ = ["Endpoint"]


class Endpoint:
    """Single-slot policy/sample mailboxes between modeler and root agent.

    ``cells`` is ``(policy, sample)``: the root agent's five inbox cells
    (:meth:`AgentPolicy.cells`) and six sample cells
    (:meth:`AgentSample.cells`), views of the cluster's agent columns; a
    standalone endpoint allocates its own.  :meth:`write_policy` and
    :meth:`read_sample` are the modeler's side.  The running job owns this
    object, so the platform faults held here outlive an endpoint restart:
    while ``stuck``, a policy write is lost; ``drift``, ``(onset,
    factor_rate, offset_rate)``, biases the power a sample reports.
    """

    def __init__(
        self, job_id: str = "", *, cells: tuple[np.ndarray, np.ndarray] | None = None
    ) -> None:
        self.job_id = job_id
        self._policy, self._sample = cells if cells is not None else (
            np.full(5, np.nan),
            np.array(SAMPLE_START),
        )
        self.policies_written = 0
        self.stuck = False
        self.drift: tuple[float, float, float] | None = None

    def detach(self) -> None:
        """Copy the cells out of the shared columns (the job left the
        cluster; its root may be re-let while its endpoint is still read)."""
        self._policy, self._sample = self._policy.copy(), self._sample.copy()

    # --------------------------------------------------- modeler-facing side

    def write_policy(self, policy: AgentPolicy) -> None:
        """Set a new objective; overwrites any not-yet-consumed policy."""
        if self.stuck:
            return
        self._policy[:] = policy.cells()
        self.policies_written += 1

    def read_sample(self) -> AgentSample | None:
        """Latest summarized agent state (None until the first publish)."""
        sample = AgentSample.from_cells(self._sample)
        if self.drift is None or sample is None:
            return sample
        onset, factor_rate, offset_rate = self.drift
        dt = max(sample.timestamp - onset, 0.0)
        factor = max(0.0, 1.0 + factor_rate * dt)
        # ``_replace`` skips ``__new__``; a sample validates nothing.
        return sample._replace(power=sample.power * factor + offset_rate * dt)

    # ----------------------------------------------------- agent-facing side

    def take_policy(self) -> AgentPolicy | None:
        """Consume the pending policy, if any."""
        policy = AgentPolicy.from_cells(self._policy)
        self._policy[0] = np.nan
        return policy

    def publish_sample(self, sample: AgentSample) -> None:
        self._sample[:] = sample.cells()

    @property
    def has_pending_policy(self) -> bool:
        return not np.isnan(self._policy[0])
