"""Tests for multi-phase job types and drift detection (paper §8)."""

import pytest

from repro.geopm.signals import ControlNames
from repro.hwsim.cluster import EmulatedCluster
from repro.modeling.online import DRIFT_WINDOW, MIN_SAMPLE_EPOCHS, OnlineModeler
from repro.modeling.quadratic import QuadraticPowerModel
from repro.workloads.phased import PhaseSpec, PhasedJobType, make_two_phase_type


class TestPhaseSpec:
    def test_valid(self):
        assert PhaseSpec(0.5, 1.5, 250.0).fraction == 0.5

    def test_fraction_bounds(self):
        with pytest.raises(ValueError, match="fraction"):
            PhaseSpec(0.0, 1.5, 250.0)
        with pytest.raises(ValueError, match="fraction"):
            PhaseSpec(1.2, 1.5, 250.0)

    def test_sensitivity_bound(self):
        with pytest.raises(ValueError, match="≥ 1"):
            PhaseSpec(0.5, 0.9, 250.0)


class TestPhasedJobType:
    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError, match="sum to 1"):
            make_two_phase_type(first=PhaseSpec(0.5, 1.7, 272.0),
                                second=PhaseSpec(0.4, 1.1, 235.0))

    def test_phase_index_by_progress(self):
        pt = make_two_phase_type()
        assert pt.phase_index(0.0) == 0
        assert pt.phase_index(0.49) == 0
        assert pt.phase_index(0.51) == 1
        assert pt.phase_index(1.0) == 1

    def test_time_per_epoch_changes_across_phases(self):
        pt = make_two_phase_type()
        sensitive = pt.time_per_epoch_at(150.0, 0.1)
        flat = pt.time_per_epoch_at(150.0, 0.9)
        assert sensitive > flat

    def test_uncapped_time_same_in_both_phases(self):
        pt = make_two_phase_type()
        assert pt.time_per_epoch_at(280.0, 0.1) == pytest.approx(
            pt.time_per_epoch_at(280.0, 0.9), rel=1e-9
        )

    def test_power_demand_per_phase(self):
        pt = make_two_phase_type()
        assert pt.power_demand_at(0.1) == 272.0
        assert pt.power_demand_at(0.9) == 235.0

    def test_needs_at_least_one_phase(self):
        with pytest.raises(ValueError, match="≥ 1 phase"):
            PhasedJobType(
                name="p", nas_name="p.D.x", nodes=1, epochs=10,
                t_uncapped=10.0, sensitivity=1.5, p_demand=250.0,
                noise=0.01, phases=(),
            )

    def test_phase_demand_within_range(self):
        with pytest.raises(ValueError, match="outside range"):
            make_two_phase_type(second=PhaseSpec(0.5, 1.1, 100.0))


class TestPhasedExecution:
    def test_emulated_runtime_matches_phase_mix(self):
        pt = make_two_phase_type()
        cluster = EmulatedCluster(pt.nodes, seed=0, run_noise=False)
        cluster.start_job("p", pt)
        for node in cluster.nodes:
            node.pio.write_control(ControlNames.CPU_POWER_LIMIT_CONTROL, 150.0)
        while cluster.running and cluster.clock.now < 5000:
            cluster.clock.advance(1.0)
            cluster.advance(1.0)
        runtime = cluster.completed[0].runtime
        half = pt.epochs // 2
        expected = half * pt.time_per_epoch_at(150.0, 0.1) + half * pt.time_per_epoch_at(150.0, 0.9)
        assert runtime == pytest.approx(expected, rel=0.05)


class TestDriftDetection:
    def make_modeler(self):
        default = QuadraticPowerModel.from_anchors(2.0, 1.3, 140.0, 280.0)
        return OnlineModeler(140.0, 280.0, default, detect_drift=True)

    def feed(self, m, *, t0, cap, tau, samples, noise=0.0):
        """``samples`` observations at ``cap``, each ``MIN_SAMPLE_EPOCHS``
        epochs of ``tau`` seconds (± ``noise``, alternating) — one training
        sample apiece, except that a modeler's very first epochs only anchor
        it; returns the end time."""
        t = t0
        count = m._last_epochs
        m.observe(t, count, cap)
        for k in range(1, samples + 1):
            t += tau * (1.0 + noise * (-1) ** k) * MIN_SAMPLE_EPOCHS
            m.observe(t, count + k * MIN_SAMPLE_EPOCHS, cap)
        return t

    def test_drift_resets_model(self):
        m = self.make_modeler()
        # Phase 1: tau = 2.4 / 2.0 at the two dither levels.
        t = self.feed(m, t0=0.0, cap=160.0, tau=2.4, samples=3)
        t = self.feed(m, t0=t, cap=260.0, tau=2.0, samples=3)
        assert m.has_fit
        # Phase 2: everything suddenly 60 % slower at the same caps.
        self.feed(m, t0=t, cap=260.0, tau=3.2, samples=2 * DRIFT_WINDOW)
        assert m.drift_resets >= 1

    def test_relearns_after_drift(self):
        m = self.make_modeler()
        t = self.feed(m, t0=0.0, cap=160.0, tau=2.4, samples=3)
        t = self.feed(m, t0=t, cap=260.0, tau=2.0, samples=3)
        t = self.feed(m, t0=t, cap=260.0, tau=3.2, samples=3 * DRIFT_WINDOW)
        self.feed(m, t0=t, cap=160.0, tau=3.8, samples=3 * DRIFT_WINDOW)
        assert m.drift_resets >= 1
        assert m.has_fit
        # The relearned model reflects the new phase's timing.
        assert m.model.time_at(260.0) == pytest.approx(3.2, rel=0.2)

    def test_no_drift_on_stable_signal(self):
        m = self.make_modeler()
        t = self.feed(m, t0=0.0, cap=160.0, tau=2.4, samples=4)
        t = self.feed(m, t0=t, cap=260.0, tau=2.0, samples=4)
        self.feed(m, t0=t, cap=200.0, tau=2.2, samples=4)
        assert m.drift_resets == 0

    def test_noise_spike_does_not_reset(self):
        """One bad sample must not throw away a good model.  Timings carry
        1 % measurement noise, so no window of normal samples shares a sign
        by accident of float rounding."""
        m = self.make_modeler()
        t = self.feed(m, t0=0.0, cap=160.0, tau=2.4, samples=3, noise=0.01)
        t = self.feed(m, t0=t, cap=260.0, tau=2.0, samples=3, noise=0.01)
        # Single outlier sample, then back to normal.
        t = self.feed(m, t0=t, cap=260.0, tau=5.0, samples=1)
        self.feed(m, t0=t, cap=260.0, tau=2.0, samples=2 * DRIFT_WINDOW, noise=0.01)
        assert m.drift_resets == 0

    def test_disabled_by_default(self):
        default = QuadraticPowerModel.from_anchors(2.0, 1.3, 140.0, 280.0)
        m = OnlineModeler(140.0, 280.0, default)
        assert not m.detect_drift
