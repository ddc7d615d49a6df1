"""Balanced agent communication tree for multi-node jobs (paper §4.3).

When the endpoint sends a new power cap to a job's root agent, the cap is
forwarded "over a communication tree to the rest of the agent instances (one
per node running the job)".  We model the tree as a heap-shaped balanced
k-ary tree over the job's node-local agents; each hop costs one agent control
period, so deep trees see policy staleness — a scalability effect §8 flags.
"""

from __future__ import annotations

import numpy as np

__all__ = ["AgentTree"]


class AgentTree:
    """Heap-shaped balanced k-ary tree over ``size`` agent instances.

    Index 0 is the root (the agent that owns the endpoint connection);
    node ``i``'s children are ``k·i + 1 … k·i + k``.
    """

    def __init__(self, size: int, fanout: int = 8) -> None:
        if size < 1:
            raise ValueError(f"tree needs at least one agent, got {size}")
        if fanout < 1:
            raise ValueError(f"fanout must be ≥ 1, got {fanout}")
        self.size = int(size)
        self.fanout = int(fanout)

    def parent(self, index: int) -> int | None:
        """Parent index, or None for the root."""
        self._check(index)
        if index == 0:
            return None
        return (index - 1) // self.fanout

    def children(self, index: int) -> list[int]:
        self._check(index)
        first = self.fanout * index + 1
        return [i for i in range(first, first + self.fanout) if i < self.size]

    def is_leaf(self, index: int) -> bool:
        return not self.children(index)

    def depth(self, index: int) -> int:
        """Hops from the root (root depth is 0)."""
        self._check(index)
        depth = 0
        while index != 0:
            index = (index - 1) // self.fanout
            depth += 1
        return depth

    @property
    def height(self) -> int:
        """Maximum depth over all agents; policy staleness is ≤ height hops.

        In a heap-shaped tree the last index is always on the deepest level.
        """
        return self.depth(self.size - 1)

    def breadth_first(self) -> list[int]:
        return list(range(self.size))

    def links(self) -> tuple[np.ndarray, np.ndarray]:
        """``(parent, position)`` of every agent but the root, in index
        order: agent ``i``'s parent and its place among that parent's
        children (0 for the first)."""
        above, position = np.divmod(np.arange(self.size - 1), self.fanout)
        return above, position

    def _check(self, index: int) -> None:
        if not 0 <= index < self.size:
            raise IndexError(f"agent index {index} out of range [0, {self.size})")
