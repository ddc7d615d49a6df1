"""Deterministic random-number-generator plumbing.

All stochastic code in :mod:`repro` accepts either an integer seed, an
existing :class:`numpy.random.Generator`, or ``None``.  :func:`ensure_rng`
normalises those three cases; :func:`spawn_rng`/:func:`derive_rng` derive
independent child streams so that adding randomness to one subsystem never
perturbs the draws seen by another.  :class:`NormalTape` draws standard
normals ahead for many streams at once, so a reader takes any number of them,
from any of its streams, in one gather; :class:`TapeStream` reads one of its
rows a draw at a time, as a generator would.
"""

from __future__ import annotations

from typing import Union

import numpy as np

Seedlike = Union[int, np.random.Generator, np.random.SeedSequence, None]


def ensure_rng(seed: Seedlike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for any seed-like input.

    Passing an existing generator returns it unchanged, so callers can thread
    a single stream through a pipeline; anything else constructs a fresh
    PCG64-backed generator.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(rng: np.random.Generator, count: int) -> list[np.random.Generator]:
    """Split ``rng`` into ``count`` statistically independent child generators.

    The parent generator is consumed (one draw) to derive the children, which
    keeps the parent usable afterwards while guaranteeing the children do not
    overlap with each other.
    """
    if count < 0:
        raise ValueError(f"count must be non-negative, got {count}")
    seeds = rng.integers(0, 2**63 - 1, size=count, dtype=np.int64)
    return [np.random.default_rng(int(s)) for s in seeds]


def spawn_one(rng: np.random.Generator) -> np.random.Generator:
    """``spawn_rng(rng, 1)[0]``: the same draw from ``rng`` and the same
    child, without the one-element seed array and list."""
    return np.random.default_rng(int(rng.integers(0, 2**63 - 1, dtype=np.int64)))


def derive_rng(rng: np.random.Generator, *tags: object) -> np.random.Generator:
    """Derive a child generator keyed by hashable ``tags``.

    Unlike :func:`spawn_rng` this does not consume state from the parent:
    the child depends only on the parent's *initial* entropy and the tags,
    so components created in any order observe identical streams.  The parent
    must have been created by :func:`ensure_rng` (PCG64 bit generator).
    """
    state = rng.bit_generator.state
    # PCG64 exposes its 128-bit state; fold it with the tag hash.
    base = state["state"]["state"] if "state" in state.get("state", {}) else 0
    tag_hash = hash(tags) & 0x7FFF_FFFF_FFFF_FFFF
    return np.random.default_rng((base ^ tag_hash) & 0x7FFF_FFFF_FFFF_FFFF)


#: Draws a tape row holds once filled (two rows a node: 1 MiB at 256 nodes).
TAPE_WIDTH = 256


class NormalTape:
    """Standard normals drawn ahead from many generators, one row each.

    ``values`` is the rows end to end, ``width`` draws each.  Row ``i`` holds
    the next draws of ``sources[i]``, in order, at positions ``head[i]`` up to
    ``end[i]`` of ``values``: a reader finds a stream's ``k``-th next draw at
    ``head[i] + k``, takes many with one gather, and consumes them by moving
    ``head[i]``.  :meth:`reserve` refills a row that holds fewer draws than a
    read needs: what it still holds moves to the row's front and the rest is
    drawn from its generator, the whole tape widening when one read needs
    more than a row has room for.  ``standard_normal`` yields one sequence
    however it is chunked, so a row is its generator's own sequence whatever
    the reads, refills and widenings.
    """

    def __init__(self, rows: int) -> None:
        self.width = TAPE_WIDTH
        self.values = np.empty(rows * self.width)
        self.head = np.arange(rows, dtype=np.int64) * self.width
        self.end = self.head.copy()
        self.sources: list[np.random.Generator | None] = [None] * rows

    def let(self, row: int, rng: np.random.Generator) -> None:
        """Give ``row`` to ``rng``'s stream, empty: it fills at its first read."""
        self.sources[row] = rng
        self.head[row] = self.end[row] = row * self.width

    def reserve(self, rows: np.ndarray, need: np.ndarray) -> None:
        """Make each of ``rows`` hold at least ``need`` draws from its head."""
        short = self.end[rows] - self.head[rows] < need
        if np.count_nonzero(short):
            self._refill(rows[short].tolist(), int(need[short].max()))

    def _refill(self, rows: list[int], need: int) -> None:
        """Refill each of ``rows``, widening the tape first if a row has no
        room for ``need`` draws."""
        width = self.width
        while width < need:
            width *= 2
        if width > self.width:
            self._widen(width)
        grid = self.values.reshape(-1, width)
        for row in rows:
            lo, hi = self.head[row], self.end[row]
            grid[row, : hi - lo] = self.values[lo:hi]
            self.sources[row].standard_normal(out=grid[row, hi - lo :])
            self.head[row], self.end[row] = row * width, (row + 1) * width

    def _widen(self, width: int) -> None:
        grid = np.empty((len(self.sources), width))
        grid[:, : self.width] = self.values.reshape(-1, self.width)
        shift = np.arange(len(self.sources)) * (width - self.width)
        self.head += shift
        self.end += shift
        self.values, self.width = grid.ravel(), width


class TapeStream:
    """Row ``row`` of ``tape`` read one draw at a time, like the generator
    behind it: the same values, in the same order, as ``standard_normal()``
    and ``normal(loc, scale)`` calls on that generator (``normal`` is
    ``loc + scale·z`` there too)."""

    __slots__ = ("tape", "row")

    def __init__(self, tape: NormalTape, row: int) -> None:
        self.tape = tape
        self.row = row

    def peek(self) -> float:
        """The draw :meth:`standard_normal` returns next, not consumed."""
        tape, row = self.tape, self.row
        if tape.head[row] == tape.end[row]:
            tape._refill([row], 1)
        return float(tape.values[tape.head[row]])

    def standard_normal(self) -> float:
        value = self.peek()
        self.tape.head[self.row] += 1
        return value

    def normal(self, loc: float, scale: float) -> float:
        return loc + scale * self.standard_normal()

    def detach(self) -> None:
        """Take the row's remaining draws and its generator to a tape of the
        stream's own, so the row can be let to another stream."""
        tape, row = self.tape, self.row
        held = tape.values[tape.head[row] : tape.end[row]]
        own = NormalTape(1)
        if held.size > own.width:
            own._widen(held.size)
        own.let(0, tape.sources[row])
        own.values[: held.size] = held
        own.end[0] = held.size
        self.tape, self.row = own, 0
