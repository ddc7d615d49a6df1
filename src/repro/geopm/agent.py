"""Power-governor agents: enforce caps, report epochs (paper §4.3).

One power-governor agent runs per node of a job.  The paper modified
GEOPM's ``power_governor`` agent to write the epoch count to the endpoint;
agents on multi-node jobs relay policy down and samples up a balanced
communication tree, one hop per control period.  Here every agent of every
running job is a column of node-indexed cells on the emulated cluster, and
:class:`JobAgentGroup` — one per cluster — steps them all in one array pass
each agent control period.  ``tests/geopm_reference.py`` keeps the
per-agent loop that pass replaced, as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import Callable, NamedTuple

import numpy as np

from repro.geopm.comm_tree import AgentTree
from repro.geopm.msr import POWER_UNIT_WATTS
from repro.geopm.signals import METER_START, read_meters
from repro.util import record

__all__ = ["AgentPolicy", "AgentSample", "JobAgentGroup", "FANOUT"]

#: Fanout of every job's agent tree (:class:`AgentTree`).
FANOUT = 8

_NAN = float("nan")


class _PolicyFields(NamedTuple):
    power_cap_node: float
    issued_at: float = 0.0
    lease_ttl: float | None = None
    safe_floor: float | None = None
    ramp_seconds: float = 30.0


@record
class AgentPolicy(_PolicyFields):
    """Control message flowing down the tree: the per-node CPU power cap.

    With a ``lease_ttl`` the policy is a *lease*: past
    ``issued_at + lease_ttl`` the agent treats its controller as silent and
    decays the cap toward ``safe_floor`` over ``ramp_seconds`` (a dead-man
    switch for the case where the job endpoint itself dies).  ``None``
    (default) keeps the pre-lease hold-last-value behaviour.

    A named tuple, like the messages it travels beside (DESIGN.md §7,
    *Control-plane records*); ``__new__`` validates the fields.
    """

    __slots__ = ()

    def __new__(
        cls, power_cap_node, issued_at=0.0, lease_ttl=None, safe_floor=None, ramp_seconds=30.0
    ):
        if power_cap_node <= 0:
            raise ValueError(f"power cap must be positive, got {power_cap_node}")
        if lease_ttl is not None and lease_ttl <= 0:
            raise ValueError(f"lease_ttl must be positive, got {lease_ttl}")
        if ramp_seconds < 0:
            raise ValueError(f"ramp_seconds must be ≥ 0, got {ramp_seconds}")
        return tuple.__new__(
            cls, (power_cap_node, issued_at, lease_ttl, safe_floor, ramp_seconds)
        )

    def effective_cap(self, now: float) -> float:
        """Cap to enforce at time ``now``, honouring lease expiry.

        Inside the lease (or with no lease) this is the dispatched cap;
        past expiry it ramps linearly down to ``safe_floor`` over
        ``ramp_seconds`` and stays there.  Never *raises* the cap: a floor
        above the dispatched cap clamps to the dispatched cap.  The agents'
        pass computes the same for every agent at once.
        """
        return float(_effective(np.array(self.cells(), ndmin=2).T, now)[0])

    def cells(self) -> tuple[float, ...]:
        """The policy as five cells: cap, ``issued_at``, lease ttl, safe
        floor, ramp seconds; an unset ttl or floor is NaN."""
        ttl, floor = self.lease_ttl, self.safe_floor
        return (
            self.power_cap_node,
            self.issued_at,
            _NAN if ttl is None else ttl,
            _NAN if floor is None else floor,
            self.ramp_seconds,
        )

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> AgentPolicy | None:
        """The policy five cells hold; None where the cap is NaN (none)."""
        cap, issued, ttl, floor, ramp = cells.tolist()
        if cap != cap:
            return None
        return cls(
            cap, issued, None if ttl != ttl else ttl, None if floor != floor else floor, ramp
        )


@record
class AgentSample(NamedTuple):
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

    def cells(self) -> tuple[float, ...]:
        """The sample as six cells, the subtree sums first: power, energy,
        nodes, timestamp, epoch count, applied cap."""
        return (
            self.power, self.energy, self.nodes, self.timestamp, self.epoch_count,
            self.applied_cap,
        )

    @classmethod
    def from_cells(cls, cells: np.ndarray) -> AgentSample | None:
        """The sample six cells hold; None where the timestamp is NaN (none
        published yet)."""
        power, energy, nodes, timestamp, epochs, applied = cells.tolist()
        if timestamp != timestamp:
            return None
        return cls(timestamp, power, energy, int(epochs), int(nodes), applied)


#: A node's sample cells before its agent first steps: zero subtree sums (a
#: parent's first period adds nothing for children not heard from yet), and
#: no timestamp.
SAMPLE_START = (0.0, 0.0, 0.0, _NAN, 0.0, 0.0)

_SAMPLE_COLUMN = np.array(SAMPLE_START)[:, None]


@cache
def _tree_links(size: int) -> tuple[np.ndarray, np.ndarray]:
    """:meth:`AgentTree.links` of a job's tree over ``size`` agents, which
    only the size decides (read, never written)."""
    return AgentTree(size, fanout=FANOUT).links()


# Rows of the group's float cells, one column per node.
_POLICY = slice(0, 5)  # the policy the agent enforces (AgentPolicy.cells)
_INBOX = slice(5, 10)  # a policy for the agent's next step; a root's is its endpoint's slot
_SAMPLE = slice(10, 16)  # the agent's subtree sample from last period (AgentSample.cells)
_SUMS = slice(10, 13)  # of it, what a parent sums over its children
_METER = 16  # from here, the node's meter (``repro.geopm.signals.METER_START``)

# ``parent`` column entries that are not a node.
_ROOT, _NONE = -1, -2


def _effective(policy: np.ndarray, now: float) -> np.ndarray:
    """:meth:`AgentPolicy.effective_cap` for policy columns ``(5, n)``."""
    cap, issued, ttl, floor, ramp = policy
    expired = now - (issued + ttl)  # NaN without a lease: never > 0
    floor = np.fmin(floor, cap)  # an unset floor clamps nothing: the cap
    with np.errstate(divide="ignore", invalid="ignore"):
        ramped = cap - expired / ramp * (cap - floor)
    settled = (ramp <= 0) | (expired >= ramp)
    return np.where(expired > 0, np.where(settled, floor, ramped), cap)


@dataclass(slots=True)
class _Layout:
    """What a pass needs that only which jobs run, on which nodes, decides."""

    active: np.ndarray | bool  # per node: it runs an agent (True: every node does)
    children: np.ndarray  # every agent with a parent,
    above: np.ndarray  # and its parent
    kids: list[np.ndarray]  # entry k: per node, its k-th child or the sentinel column
    roots: np.ndarray  # per node: 1.0 at a root, else 0.0
    idle: bool  # no node runs an agent


class JobAgentGroup:
    """Every running job's agents on one cluster, stepped as one array pass.

    The agents' state is node-indexed columns beside the cluster's energy
    and ``PKG_POWER_LIMIT`` columns, in ``cells``: per node, its meter (the
    power-read baseline, of which its
    :class:`~repro.geopm.signals.PlatformIO` is a view); per agent, its
    policy, its inbox and its subtree sample from last period; per job, its
    tree, as the ``parent`` column (a root's own entry is ``_ROOT``, a node
    with no agent's ``_NONE``) and each agent's child position ``slot``.  A
    job's endpoint is a view of its root's inbox and sample (:meth:`start`).
    ``cells`` has one sentinel column past the last node, whose subtree sums
    stay zero.

    Stepping the group once is one agent control period for every job
    (:meth:`step`).  ``caps`` returns every node's programmed cap, the
    cluster's ``Node.power_cap`` column, and ``limit_range`` is each
    package's actuatable range, into which a cap is clamped as it is
    written.
    """

    def __init__(
        self,
        energy: np.ndarray,
        limit: np.ndarray,
        limit_range: tuple[float, float],
        barrier: np.ndarray,
        caps: Callable[[], np.ndarray],
    ) -> None:
        n, packages = limit.shape
        self._energy, self._limit, self._barrier, self._caps = energy, limit, barrier, caps
        self._lo, self._hi = limit_range  # each package's actuatable cap range (W)
        self.cells = np.zeros((_METER + len(METER_START) + packages, n + 1))
        self.cells[:10] = _NAN
        self.cells[_SAMPLE] = np.array(SAMPLE_START)[:, None]
        self.cells[_METER : _METER + len(METER_START)] = np.array(METER_START)[:, None]
        self.parent = np.full(n, _NONE)
        self.slot = np.zeros(n, dtype=np.int64)
        self._layout: _Layout | None = None
        # The pass's views of the node columns, and of last period's subtree
        # sums with the sentinel's zero.
        self._policy, self._inbox, self._sample = (
            self.cells[rows, :n] for rows in (_POLICY, _INBOX, _SAMPLE)
        )
        self._meter, self._heard = self.cells[_METER:, :n], self.cells[_SUMS]

    # ------------------------------------------------------------- views

    def meter_cells(self, node: int) -> np.ndarray:
        """``node``'s meter column, for its PlatformIO."""
        return self.cells[_METER:, node : node + 1]

    def sample(self, node: int) -> AgentSample | None:
        """The subtree sample ``node``'s agent took last period (at a root:
        what its endpoint last had published, whatever reads it through)."""
        return AgentSample.from_cells(self.cells[_SAMPLE, node])

    # ---------------------------------------------------------- membership

    def start(
        self, rows: np.ndarray, at: slice | np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Give a job on nodes ``rows`` (rank order) an agent per node: its
        tree, no policy, an empty inbox and a zero sample.  The meter stays
        the node's.  ``at`` indexes the rows (a slice where they run in
        order; default: ``rows``).  Returns the root's ``(inbox, sample)``
        cells, its endpoint's."""
        rows = np.asarray(rows)
        if not rows.size:
            raise ValueError("a job needs at least one node")
        root = int(rows[0])
        self.parent[root] = _ROOT
        if rows.size > 1:
            above, position = _tree_links(rows.size)
            self.parent[rows[1:]] = rows[above]
            self.slot[rows[1:]] = position
        self.cells[_SAMPLE, rows if at is None else at] = _SAMPLE_COLUMN
        self._layout = None
        return self.cells[_INBOX, root], self.cells[_SAMPLE, root]

    def release(self, rows: np.ndarray | slice) -> None:
        """The job on ``rows`` (an index of them) left: its agents step no
        more, and its policies and a policy still in its root's inbox are
        dropped."""
        self.parent[rows] = _NONE
        self.cells[:10, rows] = _NAN
        self._layout = None

    def _build(self) -> _Layout:
        n = self.parent.size
        children = np.flatnonzero(self.parent >= 0)
        above = self.parent[children]
        slot = self.slot[children]
        kids = np.full((int(slot.max(initial=0)) + 1, n), n)
        kids[slot, above] = children
        active = self.parent != _NONE
        return _Layout(
            active=True if active.all() else active,
            children=children,
            above=above,
            kids=list(kids),
            roots=(self.parent == _ROOT).astype(float),
            idle=not children.size and _ROOT not in self.parent,
        )

    # --------------------------------------------------------------- step

    def step(self, now: float) -> None:
        """One agent control period of every running job, as one array pass.

        Per agent, the same IEEE operations in the same order as a loop of
        per-node agents would run them (``tests/geopm_reference.py``):

        1. A policy an endpoint wrote waits in its root's inbox.
        2. Every parent's policy from last period moves one hop down into
           its children's inboxes, so a policy takes one period per tree
           level to reach the leaves.
        3. An inbox replaces the agent's policy and is written to
           ``PKG_POWER_LIMIT``; a lease with no refresh is re-evaluated and
           written where it moved off the programmed cap, so an expired
           lease keeps ramping down while the endpoint above is silent.
        4. Every agent's node is read: energy, power, applied cap.  A node
           with no agent is not read; its meter waits for the next tenant.
        5. Each agent's subtree sample is its own reading plus its
           children's subtree samples from last period, summed in child
           order.  The sample's ``nodes`` counts the agents heard from: on a
           job's first period, the root's counts the root alone.  The root's
           epoch count is its profiler's barrier; every other agent's is 0.

        The pass runs over every node's column; a node with no agent has no
        policy and an empty inbox, so nothing is written for it, and what
        its sample cells hold is rewritten when a job next starts there.
        """
        lay = self._layout or self._build()
        self._layout = lay
        if lay.idle:
            return
        policy, inbox, sample, meter = self._policy, self._inbox, self._sample, self._meter
        inbox[:, lay.children] = policy[:, lay.above]
        landed = inbox[0] == inbox[0]
        np.copyto(policy, inbox, where=landed)
        inbox[0] = _NAN
        target, write = policy[0], landed
        timed = policy[2] == policy[2]
        if np.count_nonzero(timed):
            target = _effective(policy, now)
            write = landed | timed & (target != self._caps())
        if np.count_nonzero(write):
            # ``fmax`` turns a node with no policy (NaN) into the floor, so no
            # NaN reaches the cast; ``write`` leaves its register alone.
            per_package = target / self._limit.shape[1]
            watts = np.minimum(np.fmax(per_package, self._lo), self._hi)
            raw = np.rint(watts / POWER_UNIT_WATTS)[:, None]
            np.copyto(self._limit, raw, where=write[:, None], casting="unsafe")
        read_meters(self._energy, meter, now, lay.active)
        sums = self._heard[:, lay.kids[0]]
        for kid in lay.kids[1:]:
            sums += self._heard[:, kid]
        np.add(meter[:3], sums, out=sample[:3])
        sample[3] = now
        np.multiply(self._barrier, lay.roots, out=sample[4])
        sample[5] = self._caps()
