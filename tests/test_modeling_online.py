"""Tests for the online epoch-feedback modeler (paper §4.2)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.modeling.online import (
    MIN_FIT_EPOCHS,
    MIN_SAMPLE_EPOCHS,
    EpochHistory,
    EpochSample,
    OnlineModeler,
)
from repro.modeling.quadratic import QuadraticPowerModel


def make_modeler(**kwargs) -> OnlineModeler:
    default = QuadraticPowerModel.from_anchors(2.0, 1.3, 140.0, 280.0)
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
        m.observe(31.0 + 2.0 * MIN_SAMPLE_EPOCHS, 1 + MIN_SAMPLE_EPOCHS, 200.0)
        assert len(m.history) == 1
        assert m.history.samples[0].seconds_per_epoch == pytest.approx(2.0)

    def test_fit_after_threshold_epochs(self):
        assert MIN_FIT_EPOCHS == 10
        m = make_modeler(retrain_threshold=10)
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
        m = make_modeler()
        m.observe(0.0, 0, 100.0)
        m.observe(1.0, 1, 160.0)  # anchor first epoch
        # Hold 160 W for 1 s, then 240 W for 1 s; a sample's epochs complete
        # at t=3.
        m.set_cap(2.0, 240.0)
        m.observe(3.0, 1 + MIN_SAMPLE_EPOCHS, 240.0)
        sample = m.history.samples[-1]
        assert sample.p_cap == pytest.approx(200.0)

    def test_retrain_threshold_respected(self):
        # The first epoch is consumed as the anchor and samples batch six
        # epochs, so two 12-epoch feeds record 18 — still short of the
        # 20-epoch threshold — and a third crosses it.
        m = make_modeler(retrain_threshold=20)
        feed_epochs(m, cap=180.0, seconds_per_epoch=2.0, epochs=12)
        assert not m.has_fit
        feed_epochs(m, t0=200.0, cap=240.0, seconds_per_epoch=2.0, epochs=12)
        assert not m.has_fit  # 18 recorded
        feed_epochs(m, t0=300.0, cap=240.0, seconds_per_epoch=2.0, epochs=12)
        assert m.has_fit

    def test_invalid_retrain_threshold(self):
        with pytest.raises(ValueError, match="≥ 1"):
            make_modeler(retrain_threshold=0)

    def test_invalid_min_sample_epochs(self):
        assert MIN_SAMPLE_EPOCHS >= 1  # the range its constructor check enforced


class TestSampleBatching:
    def test_samples_batched_to_min_epochs(self):
        m = make_modeler()
        feed_epochs(m, cap=200.0, seconds_per_epoch=2.0, epochs=14)
        # 13 epochs after the anchor -> two 6-epoch samples, 1 pending.
        assert len(m.history) == 2
        assert all(s.epochs >= MIN_SAMPLE_EPOCHS for s in m.history.samples)

    def test_batched_time_accuracy(self):
        m = make_modeler()
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


# ----------------------------------------------------------- fit when read


@st.composite
def feeds(draw):
    """A modeler configuration, a call sequence and where the late reader reads.

    Caps come from a 30 W band (inside the 0.3 coverage threshold of the
    140 W range, so degree ≤ 1) or from the whole range (across it); epochs
    arrive in batches of 0–40; one call is a long silent gap (an outlier
    sample); from ``shift_at`` on every span runs 1.6× slower (a phase
    change, what drift detection is for); a ``seed_fit`` lands mid-stream.
    """
    centre = draw(st.floats(155.0, 265.0))
    calls = draw(
        st.lists(
            st.tuples(
                st.sampled_from(["observe"] * 6 + ["set_cap"] * 2 + ["gap"]),
                st.booleans(),  # cap from the whole range, not the band
                st.floats(0.0, 1.0),
                st.floats(0.5, 30.0),
                st.integers(0, 40),
                st.booleans(),  # the late reader reads after this call
            ),
            min_size=15,
            max_size=70,
        )
    )
    return {
        "detect_drift": draw(st.booleans()),
        "centre": centre,
        "calls": calls,
        "shift_at": draw(st.integers(0, 70)),
        "seed_at": draw(st.integers(0, 70)),
    }


def _replay(feed, *, read_every_call: bool):
    """Feed one modeler; yield what a reader sees at each of its reads."""
    m = make_modeler(detect_drift=feed["detect_drift"])
    seed = QuadraticPowerModel.from_anchors(1.7, 1.2, 140.0, 280.0)
    t, epochs = 0.0, 0
    for i, (kind, wide, u, dt, batch, late_read) in enumerate(feed["calls"]):
        cap = 140.0 + 140.0 * u if wide else feed["centre"] + 30.0 * (u - 0.5)
        if i >= feed["shift_at"]:
            dt *= 1.6
        if i == feed["seed_at"]:
            m.seed_fit(seed, r2=0.9)
        if kind == "set_cap":
            t += dt
            m.set_cap(t, cap)
        else:
            t += 400.0 * dt if kind == "gap" else dt
            epochs += 1 if kind == "gap" else batch
            m.observe(t, epochs, cap)
        if read_every_call:
            m.model, m.fit_r2
        if late_read:
            fit = m.model
            yield i, (
                (fit.a, fit.b, fit.c), m.fit_r2, m.has_fit, m.seeded, m.revision,
                m.cap_coverage, m.drift_resets, len(m.history), m.fits_due,
            )


class TestFitWhenRead:
    """A fit that falls due is computed at its first read, over the samples
    that existed when it fell due: reading late changes nothing a reader sees."""

    @given(feeds())
    @settings(max_examples=60, deadline=None)
    def test_reading_late_equals_reading_every_call(self, feed):
        at_once = list(_replay(feed, read_every_call=True))
        when_read = list(_replay(feed, read_every_call=False))
        assert when_read == at_once

    def test_a_due_fit_is_over_the_samples_it_fell_due_on(self):
        # One sample per observation; a fit due every 4th sample.
        m = make_modeler(retrain_threshold=4 * MIN_SAMPLE_EPOCHS)
        rng = np.random.default_rng(5)
        t, epochs, due_at = 0.0, 0, None
        m.observe(t, epochs, 200.0)
        while due_at is None or len(m.history) < due_at + 2:
            cap = float(rng.uniform(140.0, 280.0))
            m.set_cap(t, cap)
            t += float(rng.uniform(3.0, 6.0))
            epochs += MIN_SAMPLE_EPOCHS
            if m.observe(t, epochs, cap) and len(m.history) >= 8:
                due_at = len(m.history)
        n, k = due_at, len(m.history) - due_at
        assert k == 2 and m.has_fit and m.fits_computed == 0
        caps, times, weights = m.history.arrays()

        def direct(upto):
            a, b, c = np.polyfit(caps[:upto], times[:upto], deg=2, w=np.sqrt(weights[:upto]))
            return float(a), float(b), float(c)

        fit = m.model
        assert (fit.a, fit.b, fit.c) == direct(n)
        assert (fit.a, fit.b, fit.c) != direct(n + k)
        assert m._fit.n_samples == n
        assert (m.fits_due, m.fits_computed) == (n // 4, 1)
        assert m.model is fit  # a second read computes nothing
        assert m.fits_computed == 1

    def test_observe_makes_no_numpy_call(self, monkeypatch):
        m = make_modeler()
        feed_epochs(m, cap=200.0, seconds_per_epoch=1.0, epochs=9)

        def fail(*args, **kwargs):
            raise AssertionError("observe computed a fit")

        monkeypatch.setattr(np, "polyfit", fail)
        monkeypatch.setattr(np, "average", fail)
        monkeypatch.setattr(np, "array", fail)
        t = feed_epochs(m, t0=20.0, cap=260.0, seconds_per_epoch=1.0, epochs=30)
        assert m.fits_due >= 2 and m.fits_computed == 0 and m.has_fit
        monkeypatch.undo()
        assert m.model is not m.default_model and m.fits_computed == 1
        feed_epochs(m, t0=t + 1.0, cap=150.0, seconds_per_epoch=1.0, epochs=30)
        assert m.fits_computed == 1  # later due fits replaced it unread

    def test_seed_fit_drops_a_due_fit_uncomputed(self):
        m = make_modeler()
        feed_epochs(m, cap=200.0, seconds_per_epoch=1.0, epochs=2 * MIN_SAMPLE_EPOCHS + 1)
        assert m.fits_due == 1
        seed = QuadraticPowerModel.from_anchors(1.7, 1.2, 140.0, 280.0)
        m.seed_fit(seed, r2=0.9)
        assert m.model is seed and m.fit_r2 == 0.9 and m.fits_computed == 0
