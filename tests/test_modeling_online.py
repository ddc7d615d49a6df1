"""Tests for the online epoch-feedback modeler (paper §4.2)."""

import numpy as np
import pytest

from repro.modeling.online import EpochHistory, EpochSample, OnlineModeler
from repro.modeling.quadratic import QuadraticPowerModel


def make_modeler(**kwargs) -> OnlineModeler:
    default = QuadraticPowerModel.from_anchors(2.0, 1.3, 140.0, 280.0)
    kwargs.setdefault("min_sample_epochs", 1)
    return OnlineModeler(140.0, 280.0, default, **kwargs)


def feed_epochs(modeler, *, t0=0.0, cap, seconds_per_epoch, epochs, period=1.0):
    """Simulate steady epoch progress at a fixed cap; returns end time."""
    t = t0
    count = modeler._last_epochs
    # Announce the cap, then step time in observation periods.
    modeler.observe(t, count, cap)
    total_time = seconds_per_epoch * epochs
    steps = int(total_time / period)
    for i in range(1, steps + 1):
        t = t0 + i * period
        done = count + min(epochs, int(i * period / seconds_per_epoch))
        modeler.observe(t, done, cap)
    return t


class TestEpochHistory:
    def test_append_and_len(self):
        h = EpochHistory()
        h.append(EpochSample(200.0, 1.5, 4, 0.0))
        assert len(h) == 1
        assert h.total_epochs == 4

    def test_rejects_non_positive_time(self):
        with pytest.raises(ValueError, match="non-positive"):
            EpochHistory().append(EpochSample(200.0, 0.0, 1, 0.0))

    def test_rejects_zero_epochs(self):
        with pytest.raises(ValueError, match="≥ 1"):
            EpochHistory().append(EpochSample(200.0, 1.0, 0, 0.0))

    def test_arrays(self):
        h = EpochHistory()
        h.append(EpochSample(200.0, 1.5, 4, 0.0))
        h.append(EpochSample(250.0, 1.2, 6, 10.0))
        caps, times, weights = h.arrays()
        assert caps.tolist() == [200.0, 250.0]
        assert weights.tolist() == [4.0, 6.0]


class TestObservation:
    def test_default_model_until_fit(self):
        m = make_modeler()
        assert not m.has_fit
        assert m.model is m.default_model

    def test_setup_time_excluded(self):
        """Idle time before the first epoch must not poison samples."""
        m = make_modeler()
        m.observe(0.0, 0, 280.0)
        m.observe(30.0, 0, 280.0)  # 30 s of setup, no epochs
        m.observe(31.0, 1, 200.0)  # first epoch: re-anchors only
        m.observe(33.0, 2, 200.0)
        assert len(m.history) == 1
        assert m.history.samples[0].seconds_per_epoch == pytest.approx(2.0)

    def test_fit_after_threshold_epochs(self):
        m = make_modeler(retrain_threshold=10, min_fit_epochs=10)
        feed_epochs(m, cap=180.0, seconds_per_epoch=2.0, epochs=8)
        assert not m.has_fit
        feed_epochs(m, t0=100.0, cap=260.0, seconds_per_epoch=1.5, epochs=8)
        assert m.has_fit

    def test_fitted_model_reflects_data(self):
        m = make_modeler()
        feed_epochs(m, cap=160.0, seconds_per_epoch=3.0, epochs=15)
        feed_epochs(m, t0=100.0, cap=260.0, seconds_per_epoch=2.0, epochs=15)
        fitted = m.model
        assert fitted.time_at(160.0) > fitted.time_at(260.0)

    def test_epoch_count_cannot_decrease(self):
        m = make_modeler()
        m.observe(0.0, 5, 200.0)
        with pytest.raises(ValueError, match="backwards"):
            m.observe(1.0, 3, 200.0)

    def test_time_cannot_decrease(self):
        m = make_modeler()
        m.observe(0.0, 0, 200.0)
        m.observe(1.0, 1, 200.0)  # first epoch anchor
        m.observe(2.0, 2, 200.0)
        with pytest.raises(ValueError, match="backwards"):
            m.observe(1.5, 3, 200.0)

    def test_no_epochs_keeps_default(self):
        m = make_modeler()
        for i in range(100):
            m.observe(float(i), 0, 200.0)
        assert not m.has_fit
        assert m.model is m.default_model

    def test_cap_coverage_zero_with_single_cap(self):
        m = make_modeler()
        feed_epochs(m, cap=200.0, seconds_per_epoch=2.0, epochs=12)
        assert m.cap_coverage == pytest.approx(0.0, abs=0.01)

    def test_cap_coverage_grows_with_dither(self):
        m = make_modeler()
        feed_epochs(m, cap=150.0, seconds_per_epoch=2.0, epochs=10)
        feed_epochs(m, t0=50.0, cap=270.0, seconds_per_epoch=1.5, epochs=10)
        assert m.cap_coverage > 0.5

    def test_set_cap_integrates_between_observations(self):
        m = make_modeler(min_sample_epochs=1)
        m.observe(0.0, 0, 100.0)
        m.observe(1.0, 1, 160.0)  # anchor first epoch
        # Hold 160 W for 1 s, then 240 W for 1 s; epoch completes at t=3.
        m.set_cap(2.0, 240.0)
        m.observe(3.0, 2, 240.0)
        sample = m.history.samples[-1]
        assert sample.p_cap == pytest.approx(200.0)

    def test_retrain_threshold_respected(self):
        # The first epoch is consumed as the anchor, so 12 feeds yield 11
        # recorded epochs — still short of the 20-epoch threshold.
        m = make_modeler(retrain_threshold=20, min_fit_epochs=20)
        feed_epochs(m, cap=180.0, seconds_per_epoch=2.0, epochs=12)
        assert not m.has_fit
        feed_epochs(m, t0=200.0, cap=240.0, seconds_per_epoch=2.0, epochs=12)
        assert m.has_fit

    def test_invalid_retrain_threshold(self):
        with pytest.raises(ValueError, match="≥ 1"):
            make_modeler(retrain_threshold=0)

    def test_invalid_min_sample_epochs(self):
        with pytest.raises(ValueError, match="≥ 1"):
            make_modeler(min_sample_epochs=0)


class TestSampleBatching:
    def test_samples_batched_to_min_epochs(self):
        m = make_modeler(min_sample_epochs=5)
        feed_epochs(m, cap=200.0, seconds_per_epoch=2.0, epochs=14)
        # 13 epochs after the anchor -> two 5-epoch samples, 3 pending.
        assert all(s.epochs >= 5 for s in m.history.samples)

    def test_batched_time_accuracy(self):
        m = make_modeler(min_sample_epochs=4)
        feed_epochs(m, cap=200.0, seconds_per_epoch=2.0, epochs=13)
        for s in m.history.samples:
            assert s.seconds_per_epoch == pytest.approx(2.0, rel=0.3)


class TestOutlierRejection:
    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7, 8, 9, 10, 14])
    def test_threshold_is_six_times_numpys_median_of_the_last_ten(self, n):
        """The median is the middle of a sorted list, or the mean of the two
        middle values (0.4 µs on ≤ 10 Python floats against 17 µs for
        ``np.median``); the threshold it sets is ``np.median``'s to the last
        bit."""
        rng = np.random.default_rng(n)
        for _ in range(100):
            times = rng.uniform(0.1, 30.0, n).tolist()
            m = make_modeler()
            for k, seconds in enumerate(times):
                m.history.append(EpochSample(200.0, seconds, 1, float(k)))
            edge = 6.0 * float(np.median(times[-10:]))
            assert not m._is_outlier(EpochSample(200.0, edge, 1, 99.0))
            above = float(np.nextafter(edge, np.inf))
            assert m._is_outlier(EpochSample(200.0, above, 1, 99.0))

    def test_fewer_than_three_samples_reject_nothing(self):
        m = make_modeler()
        m.history.append(EpochSample(200.0, 1.0, 1, 0.0))
        m.history.append(EpochSample(200.0, 1.0, 1, 1.0))
        assert not m._is_outlier(EpochSample(200.0, 1e6, 1, 2.0))
