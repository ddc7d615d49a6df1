"""Tests for deterministic RNG plumbing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.util.rng import (
    TAPE_WIDTH, NormalTape, TapeStream, derive_rng, ensure_rng, spawn_one, spawn_rng,
)


class TestEnsureRng:
    def test_none_gives_generator(self):
        assert isinstance(ensure_rng(None), np.random.Generator)

    def test_int_seed_is_reproducible(self):
        a = ensure_rng(7).integers(0, 1_000_000, size=10)
        b = ensure_rng(7).integers(0, 1_000_000, size=10)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_differ(self):
        a = ensure_rng(1).integers(0, 1_000_000, size=10)
        b = ensure_rng(2).integers(0, 1_000_000, size=10)
        assert not np.array_equal(a, b)

    def test_generator_passes_through(self):
        gen = np.random.default_rng(0)
        assert ensure_rng(gen) is gen


class TestSpawnRng:
    def test_children_are_independent(self):
        parent = ensure_rng(0)
        kids = spawn_rng(parent, 3)
        draws = [k.integers(0, 2**31, size=100) for k in kids]
        assert not np.array_equal(draws[0], draws[1])
        assert not np.array_equal(draws[1], draws[2])

    def test_spawn_reproducible_from_same_parent_seed(self):
        a = spawn_rng(ensure_rng(5), 2)
        b = spawn_rng(ensure_rng(5), 2)
        assert a[0].integers(0, 2**31) == b[0].integers(0, 2**31)
        assert a[1].integers(0, 2**31) == b[1].integers(0, 2**31)

    def test_zero_children(self):
        assert spawn_rng(ensure_rng(0), 0) == []

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            spawn_rng(ensure_rng(0), -1)

    def test_parent_usable_after_spawn(self):
        parent = ensure_rng(0)
        spawn_rng(parent, 4)
        assert 0 <= parent.random() < 1


class TestDeriveRng:
    def test_same_tags_same_stream(self):
        a = derive_rng(ensure_rng(3), "node", 7)
        b = derive_rng(ensure_rng(3), "node", 7)
        assert a.integers(0, 2**31) == b.integers(0, 2**31)

    def test_different_tags_differ(self):
        a = derive_rng(ensure_rng(3), "node", 7)
        b = derive_rng(ensure_rng(3), "node", 8)
        assert not np.array_equal(
            a.integers(0, 2**31, size=50), b.integers(0, 2**31, size=50)
        )

    def test_derivation_does_not_consume_parent(self):
        p1, p2 = ensure_rng(9), ensure_rng(9)
        derive_rng(p1, "x")
        assert p1.random() == p2.random()


def _after(seed: int, drawn: int) -> np.random.Generator:
    """Generator ``seed`` with its first ``drawn`` standard normals consumed."""
    rng = np.random.default_rng(seed)
    rng.standard_normal(drawn)
    return rng


class TestNormalTape:
    """A tape row yields its generator's own sequence however it is read:
    gathers of any width over both rows at once (keeping any prefix, the
    rest handed back), refills, widening past ``TAPE_WIDTH``, one-at-a-time
    ``normal(loc, scale)`` reads, and a stream detached while its row is let
    to another generator."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        ops=st.lists(
            st.one_of(
                st.tuples(
                    st.just("gather"),
                    st.tuples(st.integers(0, 3 * TAPE_WIDTH), st.integers(0, 3 * TAPE_WIDTH)),
                    st.tuples(st.floats(0, 1), st.floats(0, 1)),  # share of each kept
                ),
                st.tuples(
                    st.just("normal"), st.integers(0, 7), st.floats(-1e3, 1e3), st.floats(0, 50)
                ),
                st.tuples(st.just("detach"), st.integers(0, 1)),
            ),
            max_size=25,
        ),
    )
    def test_a_row_is_its_generators_sequence(self, seed, ops):
        tape = NormalTape(2)
        # Per stream: its handle, its generator's seed, draws consumed.
        streams = []
        on_row = [0, 1]  # the stream each row holds

        def let(row):
            streams.append([TapeStream(tape, row), seed + len(streams), 0])
            tape.let(row, np.random.default_rng(streams[-1][1]))
            on_row[row] = len(streams) - 1

        let(0)
        let(1)
        for op in ops:
            if op[0] == "gather":
                need = np.array(op[1])
                rows = np.array([0, 1])
                tape.reserve(rows, need)
                where = np.concatenate([tape.head[r] + np.arange(n) for r, n in zip(rows, need)])
                got = np.split(tape.values[where], [need[0]])
                for row, n, share in zip(rows.tolist(), need.tolist(), op[2]):
                    stream = streams[on_row[row]]
                    drawn = _after(stream[1], stream[2]).standard_normal(n)
                    assert got[row].tolist() == drawn.tolist()
                    kept = int(share * n)
                    tape.head[row] += kept
                    stream[2] += kept
            elif op[0] == "normal":
                stream = streams[op[1] % len(streams)]
                _, loc, scale = op[1:]
                drawn = _after(stream[1], stream[2]).normal(loc, scale)
                assert stream[0].normal(loc, scale) == drawn
                stream[2] += 1
            else:
                streams[on_row[op[1]]][0].detach()
                let(op[1])
        for handle, stream_seed, drawn in streams:
            assert handle.peek() == _after(stream_seed, drawn).standard_normal()


def test_spawn_one_is_spawn_rngs_first_child():
    parents = ensure_rng(9), ensure_rng(9)
    for _ in range(3):  # the parents stay in step, draw after draw
        one, (first,) = spawn_one(parents[0]), spawn_rng(parents[1], 1)
        assert one.standard_normal(8).tolist() == first.standard_normal(8).tolist()
    assert parents[0].random() == parents[1].random()
