"""Tests for the simulation clock and the period gate."""

import pytest

from repro.util.clock import PeriodicGate, SimClock


class TestSimClock:
    def test_starts_at_zero_by_default(self):
        assert SimClock().now == 0.0

    def test_advance_default_tick(self):
        clock = SimClock(tick=0.5)
        assert clock.advance() == 0.5
        assert clock.now == 0.5

    def test_advance_explicit(self):
        clock = SimClock(start=10.0)
        assert clock.advance(2.5) == 12.5

    def test_cannot_go_backwards(self):
        with pytest.raises(ValueError, match="backwards"):
            SimClock().advance(-1.0)

    def test_tick_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            SimClock(tick=0.0)


class TestPeriodicGate:
    def test_first_poll_fires_and_anchors(self):
        gate = PeriodicGate(5.0)
        assert gate.due(3.0)
        assert gate.next_due == 8.0
        assert not gate.due(7.0)

    def test_period_must_be_positive(self):
        with pytest.raises(ValueError, match="positive"):
            PeriodicGate(0.0)

    def test_integer_grid_exact_count(self):
        gate = PeriodicGate(5.0)
        fires = sum(gate.due(float(t)) for t in range(1, 1001))
        # Anchored at t=1, due at 1, 6, 11, ..., 996.
        assert fires == 200

    def test_period_not_a_multiple_of_the_poll_interval(self):
        # The defect this gate replaces: ``next = now + period - 1e-9``
        # re-anchored at the actual fire time rounds a 2.5 s period polled
        # every 1 s up to an effective 3 s (33% fewer firings).  The grid
        # anchor keeps the long-run rate exact.
        gate = PeriodicGate(2.5)
        fires = sum(gate.due(float(t)) for t in range(1, 10001))
        assert fires == 4000  # 10000 s horizon / 2.5 s period

    def test_accumulated_float_ticks_do_not_drift(self):
        # ``now`` built by summing 0.1 ticks is inexact; the relative
        # tolerance must absorb that without ever double-firing.
        gate = PeriodicGate(1.0)
        now, fires = 0.0, 0
        for _ in range(20000):  # 2000 s of 0.1 s ticks
            now += 0.1
            fires += gate.due(now)
        assert fires == 2000

    def test_missed_instants_collapse_into_one_firing(self):
        gate = PeriodicGate(1.0)
        assert gate.due(0.0)
        assert gate.due(100.0)  # slept through 99 instants: one late firing
        assert not gate.due(100.5)
        assert gate.due(101.0)  # grid preserved: next instants stay integral

    def test_next_due_before_first_firing(self):
        assert PeriodicGate(2.0).next_due == float("-inf")
