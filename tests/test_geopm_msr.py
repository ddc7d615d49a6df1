"""Tests for emulated RAPL MSRs (paper §5.4)."""

import pytest
from hypothesis import given, strategies as st

from repro.geopm.msr import (
    ENERGY_COUNTER_BITS,
    ENERGY_UNIT_JOULES,
    MSR_PKG_ENERGY_STATUS,
    MSR_PKG_POWER_LIMIT,
    POWER_UNIT_WATTS,
    MsrBank,
    energy_counter_delta,
)


class TestEnergyCounter:
    def test_accumulates(self):
        bank = MsrBank()
        bank.accumulate_energy(1.0)
        raw = bank.read(MSR_PKG_ENERGY_STATUS)
        assert raw * ENERGY_UNIT_JOULES == pytest.approx(1.0, rel=1e-4)

    def test_wraps_at_32_bits(self):
        bank = MsrBank()
        wrap_joules = (1 << ENERGY_COUNTER_BITS) * ENERGY_UNIT_JOULES
        bank.accumulate_energy(wrap_joules + 5.0)
        raw = bank.read(MSR_PKG_ENERGY_STATUS)
        assert raw * ENERGY_UNIT_JOULES == pytest.approx(5.0, rel=1e-3)

    def test_wraps_after_many_small_deposits(self):
        """The raw counter is derived from the unwrapped total on read, so
        tick-sized deposits carry it across the wrap exactly as one large
        deposit would, and sparse readers still recover every joule."""
        bank = MsrBank()
        wrap_joules = (1 << ENERGY_COUNTER_BITS) * ENERGY_UNIT_JOULES
        deposit = 70.3  # one package at ~140 W over a 0.5 s tick
        last_raw = bank.read(MSR_PKG_ENERGY_STATUS)
        total = recovered = 0.0
        for k in range(1, 2001):
            bank.accumulate_energy(deposit)
            total += deposit
            if k % 250 == 0:  # an agent sampling every 250 ticks
                raw = bank.read(MSR_PKG_ENERGY_STATUS)
                recovered += energy_counter_delta(last_raw, raw)
                last_raw = raw
        assert total > 2 * wrap_joules  # wrapped twice on the way
        assert bank.total_energy_joules == total
        mask = (1 << ENERGY_COUNTER_BITS) - 1
        assert bank.read(MSR_PKG_ENERGY_STATUS) == int(round(total / ENERGY_UNIT_JOULES)) & mask
        assert recovered == pytest.approx(total, abs=2 * ENERGY_UNIT_JOULES)

    def test_total_energy_unwrapped(self):
        bank = MsrBank()
        wrap_joules = (1 << ENERGY_COUNTER_BITS) * ENERGY_UNIT_JOULES
        bank.accumulate_energy(wrap_joules + 5.0)
        assert bank.total_energy_joules == pytest.approx(wrap_joules + 5.0)

    def test_delta_across_wraparound(self):
        before = (1 << ENERGY_COUNTER_BITS) - 100
        after = 50
        delta = energy_counter_delta(before, after)
        assert delta == pytest.approx(150 * ENERGY_UNIT_JOULES)

    def test_delta_without_wrap(self):
        assert energy_counter_delta(100, 300) == pytest.approx(
            200 * ENERGY_UNIT_JOULES
        )

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            MsrBank().accumulate_energy(-1.0)

    def test_energy_register_read_only(self):
        with pytest.raises(PermissionError):
            MsrBank().write(MSR_PKG_ENERGY_STATUS, 0)

    # Deposits stay below the 65536 J wrap quantum: like real RAPL, a reader
    # sampling less often than one full wrap cannot disambiguate the count.
    @given(st.lists(st.floats(0.0, 6.0e4), min_size=1, max_size=30))
    def test_property_deltas_reconstruct_total(self, deposits):
        """Reading deltas through the wrapping counter recovers the total."""
        bank = MsrBank()
        last_raw = bank.read(MSR_PKG_ENERGY_STATUS)
        recovered = 0.0
        for joules in deposits:
            bank.accumulate_energy(joules)
            raw = bank.read(MSR_PKG_ENERGY_STATUS)
            recovered += energy_counter_delta(last_raw, raw)
            last_raw = raw
        assert recovered == pytest.approx(sum(deposits), rel=1e-3, abs=1e-3)


class TestPowerLimit:
    def test_default_is_tdp(self):
        assert MsrBank(tdp_watts=140.0).power_limit_watts == 140.0

    def test_set_and_read(self):
        bank = MsrBank()
        bank.set_power_limit_watts(100.0)
        assert bank.power_limit_watts == 100.0

    def test_quantised_to_eighth_watt(self):
        bank = MsrBank()
        stored = bank.set_power_limit_watts(99.97)
        assert stored % POWER_UNIT_WATTS == pytest.approx(0.0, abs=1e-9)
        assert abs(stored - 99.97) <= POWER_UNIT_WATTS

    def test_clamped_to_floor(self):
        bank = MsrBank(min_power_watts=70.0)
        assert bank.set_power_limit_watts(10.0) == 70.0

    def test_clamped_to_tdp(self):
        bank = MsrBank(tdp_watts=140.0)
        assert bank.set_power_limit_watts(500.0) == 140.0

    def test_raw_register_roundtrip(self):
        bank = MsrBank()
        bank.write(MSR_PKG_POWER_LIMIT, 800)  # 100 W in eighth-watt units
        assert bank.read(MSR_PKG_POWER_LIMIT) == 800
        assert bank.power_limit_watts == 100.0

    def test_negative_raw_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            MsrBank().write(MSR_PKG_POWER_LIMIT, -1)

    def test_unknown_address_rejected(self):
        with pytest.raises(KeyError, match="unsupported"):
            MsrBank().read(0x999)
        with pytest.raises(KeyError, match="unsupported"):
            MsrBank().write(0x999, 0)

    def test_invalid_power_range_rejected(self):
        with pytest.raises(ValueError, match="min_power"):
            MsrBank(tdp_watts=50.0, min_power_watts=70.0)
