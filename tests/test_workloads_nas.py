"""Tests for the NAS job-type catalog (paper §5.1, Fig. 3)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.workloads.nas import (
    NAS_TYPES,
    P_NODE_MAX,
    P_NODE_MIN,
    default_mix,
    get_job_type,
    long_running_mix,
    misclassification_trio,
)


class TestCatalog:
    def test_eight_types(self):
        assert len(NAS_TYPES) == 8
        assert set(NAS_TYPES) == {"bt", "cg", "ep", "ft", "is", "lu", "mg", "sp"}

    def test_ep_most_sensitive_is_least(self):
        """§6.1.2 relies on EP being the most and IS the least sensitive."""
        sens = {n: jt.sensitivity for n, jt in NAS_TYPES.items()}
        assert max(sens, key=sens.get) == "ep"
        assert min(sens, key=sens.get) == "is"

    def test_bt_sensitive_sp_insensitive(self):
        """Figs. 6–8 pair BT (high) with SP (low)."""
        assert NAS_TYPES["bt"].sensitivity > 1.5
        assert NAS_TYPES["sp"].sensitivity < 1.2

    def test_is_and_ep_are_short(self):
        """§7.2: IS and EP run for less than half a minute."""
        assert NAS_TYPES["is"].t_uncapped < 30.0
        assert NAS_TYPES["ep"].t_uncapped < 30.0

    def test_cap_range_matches_platform(self):
        assert P_NODE_MIN == 140.0  # 2 × 70 W package floor
        assert P_NODE_MAX == 280.0  # 2 × 140 W TDP

    def test_nas_names(self):
        assert NAS_TYPES["bt"].nas_name == "bt.D.x"


class TestLookups:
    def test_short_name(self):
        assert get_job_type("bt") is NAS_TYPES["bt"]

    def test_full_paper_name(self):
        assert get_job_type("bt.D.x") is NAS_TYPES["bt"]

    def test_case_insensitive(self):
        assert get_job_type("BT.D.81") is NAS_TYPES["bt"]

    def test_unknown_raises(self):
        with pytest.raises(KeyError, match="unknown job type"):
            get_job_type("xx")

    def test_default_mix_has_all(self):
        assert len(default_mix()) == 8

    def test_long_running_excludes_short(self):
        names = {jt.name for jt in long_running_mix()}
        assert names == {"bt", "cg", "ft", "lu", "mg", "sp"}

    def test_trio_ordering(self):
        low, mid, high = misclassification_trio()
        assert low.sensitivity < mid.sensitivity < high.sensitivity


class TestTruthCurves:
    @pytest.mark.parametrize("name", sorted(NAS_TYPES))
    def test_monotone(self, name):
        jt = NAS_TYPES[name]
        caps = np.linspace(jt.p_min, jt.p_max, 50)
        times = jt.time_per_epoch(caps)
        assert np.all(np.diff(times) <= 1e-12)

    @pytest.mark.parametrize("name", sorted(NAS_TYPES))
    def test_sensitivity_anchored(self, name):
        jt = NAS_TYPES[name]
        assert float(jt.relative_time(jt.p_min)) == pytest.approx(
            jt.sensitivity, rel=1e-9
        )

    @pytest.mark.parametrize("name", sorted(NAS_TYPES))
    def test_uncapped_compute_time(self, name):
        jt = NAS_TYPES[name]
        assert jt.compute_time(jt.p_max) == pytest.approx(jt.t_uncapped, rel=1e-9)

    def test_total_time_includes_overheads(self):
        jt = NAS_TYPES["bt"]
        assert jt.total_time(jt.p_max) == pytest.approx(
            jt.t_uncapped + jt.setup_time + jt.teardown_time
        )

    def test_cap_above_demand_not_binding(self):
        jt = NAS_TYPES["is"]  # p_demand = 235 W
        assert jt.compute_time(250.0) == jt.compute_time(jt.p_max)

    def test_power_at_cap_clamps(self):
        jt = NAS_TYPES["sp"]
        assert jt.power_at_cap(1000.0) == jt.p_demand
        assert jt.power_at_cap(100.0) == jt.p_min

    def test_slowdown_non_negative(self):
        jt = NAS_TYPES["lu"]
        for cap in (140.0, 200.0, 280.0):
            assert jt.slowdown(cap) >= -1e-12


class TestDerivedTypes:
    def test_scaled_nodes(self):
        big = NAS_TYPES["bt"].scaled_nodes(25)
        assert big.nodes == NAS_TYPES["bt"].nodes * 25
        assert big.sensitivity == NAS_TYPES["bt"].sensitivity

    def test_scaled_rejects_zero(self):
        with pytest.raises(ValueError, match="≥ 1"):
            NAS_TYPES["bt"].scaled_nodes(0)

    def test_power_wave_outside_unit_interval_rejected(self):
        # From 1 on the wave's trough asks for ≤ 0 W, which the idle floor
        # would hide.
        assert replace(NAS_TYPES["lu"], power_wave=0.99).power_wave == 0.99
        for wave in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError, match="power_wave"):
                replace(NAS_TYPES["lu"], power_wave=wave)

    def test_with_nodes(self):
        pinned = NAS_TYPES["ft"].with_nodes(8)
        assert pinned.nodes == 8
        assert pinned.truth.sensitivity == NAS_TYPES["ft"].truth.sensitivity
