"""Tests for the emulated compute node."""

import numpy as np
import pytest

from repro.hwsim.node import Node
from repro.workloads.nas import IDLE_NODE_POWER
from tests.hwsim_reference import consume, consume_idle


@pytest.fixture
def node():
    clock = {"now": 0.0}
    n = Node(0, clock_fn=lambda: clock["now"])
    return clock, n


class TestCapRange:
    def test_default_caps(self, node):
        _, n = node
        assert n.power_cap == 280.0
        assert n.max_power_cap == 280.0
        assert n.min_power_cap == 140.0

    def test_cap_reflects_written_control(self, node):
        _, n = node
        n.pio.write_control("CPU_POWER_LIMIT_CONTROL", 200.0)
        assert n.power_cap == pytest.approx(200.0, abs=0.25)


class TestConsume:
    def test_draw_capped(self, node, rng):
        _, n = node
        n.pio.write_control("CPU_POWER_LIMIT_CONTROL", 160.0)
        power = consume(n, 250.0, 1.0, rng)
        assert power <= 160.5  # cap plus quantisation

    def test_draw_limited_by_demand(self, node, rng):
        _, n = node
        draws = [consume(n, 200.0, 1.0, rng) for _ in range(50)]
        assert np.mean(draws) == pytest.approx(200.0, rel=0.02)

    def test_idle_floor(self, node, rng):
        _, n = node
        assert consume(n, 0.0, 1.0, rng) >= IDLE_NODE_POWER * 0.9

    def test_energy_deposited(self, node, rng):
        _, n = node
        before = n.total_energy
        consume(n, 200.0, 2.0, rng)
        assert n.total_energy - before == pytest.approx(2.0 * n.last_power, rel=1e-6)

    def test_energy_split_across_packages(self, node, rng):
        _, n = node
        consume(n, 200.0, 1.0, rng)
        energies = [b.total_energy_joules for b in n.banks]
        assert energies[0] == pytest.approx(energies[1])

    def test_non_positive_dt_rejected(self, node, rng):
        _, n = node
        with pytest.raises(ValueError, match="positive"):
            consume(n, 100.0, 0.0, rng)

    def test_consume_idle(self, node, rng):
        _, n = node
        draws = [consume_idle(n, 1.0, rng) for _ in range(50)]
        assert np.mean(draws) == pytest.approx(IDLE_NODE_POWER, rel=0.05)


class TestConstruction:
    def test_perf_multiplier_positive(self):
        with pytest.raises(ValueError, match="positive"):
            Node(0, clock_fn=lambda: 0.0, perf_multiplier=0.0)

    def test_packages_at_least_one(self):
        with pytest.raises(ValueError, match="≥ 1"):
            Node(0, clock_fn=lambda: 0.0, packages=0)

    def test_idle_by_default(self):
        n = Node(3, clock_fn=lambda: 0.0)
        assert n.is_idle
        n.job_id = "j"
        assert not n.is_idle
