"""Tests for the online epoch-feedback modeler (paper §4.2)."""

import warnings

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

    def test_rejects_non_finite_cap(self):
        for cap in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="non-finite"):
                EpochHistory().append(EpochSample(cap, 1.0, 1, 0.0))

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


# ------------------------------------------------------------ fit oracle


def parent_fit(history, n, p_min, p_max):
    """The fit over the first ``n`` samples as ``_resolve`` computed it
    through ``np.polyfit`` / ``np.unique`` / ``np.average`` over arrays
    rebuilt from the samples, kept verbatim: ``((a, b, c), r2)``."""
    samples = history.samples[:n]
    caps = np.array([s.p_cap for s in samples], dtype=float)
    times = np.array([s.seconds_per_epoch for s in samples], dtype=float)
    weights = np.array([s.epochs for s in samples], dtype=float)
    sqrt_w = np.sqrt(weights)
    distinct = np.unique(np.round(caps / 2.0)).size
    span = p_max - p_min
    coverage = (caps.max() - caps.min()) / span if span > 0 else 0.0
    degree = min(2 if coverage >= 0.3 else 1, distinct - 1)
    if degree > 0:
        coeffs = np.polyfit(caps, times, deg=degree, w=sqrt_w)
    else:
        coeffs = np.array([float(np.average(times, weights=weights))])
    padded = np.zeros(3)
    padded[3 - coeffs.size:] = coeffs
    model = QuadraticPowerModel(
        a=float(padded[0]), b=float(padded[1]), c=float(padded[2]),
        p_min=p_min, p_max=p_max,
    )
    pred = model.a * caps * caps + model.b * caps + model.c
    ss_res = float(np.sum(weights * (times - pred) ** 2))
    t_bar = float(np.average(times, weights=weights))
    ss_tot = float(np.sum(weights * (times - t_bar) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return (model.a, model.b, model.c), r2


def resolved(m, n):
    """``m``'s fit over its first ``n`` samples, as a due fit resolves."""
    m._fit = n
    fit = m._resolve()
    return (fit.model.a, fit.model.b, fit.model.c), fit.r2


def degree_of(coeffs):
    a, b, _ = coeffs
    return 2 if a != 0.0 else 1 if b != 0.0 else 0


@st.composite
def histories(draw):
    """A cap range and 1–60 samples from one cap (degree 0), a band narrower
    than the 0.3 coverage threshold (degree ≤ 1) or the whole range."""
    p_min = draw(st.sampled_from([70.0, 140.0]))
    p_max = p_min + draw(st.sampled_from([100.0, 140.0, 210.0]))
    spread = draw(st.sampled_from(["one cap", "band", "range"]))
    centre = draw(st.floats(p_min, p_max))
    samples = []
    for k in range(draw(st.integers(1, 60))):
        u = draw(st.floats(0.0, 1.0))
        cap = {"one cap": centre, "band": centre + 0.25 * (p_max - p_min) * (u - 0.5),
               "range": p_min + (p_max - p_min) * u}[spread]
        seconds = draw(st.floats(0.2, 5.0))
        samples.append(EpochSample(cap, seconds, draw(st.integers(1, 40)), float(k)))
    return p_min, p_max, samples, draw(st.integers(1, len(samples)))


class TestFitOracle:
    """``_resolve`` — column views, the prefix's bucket count and range,
    ``np.polyfit``'s own operations, ``np.average``'s arithmetic — equals
    the ``np.polyfit`` / ``np.unique`` / ``np.average`` body it replaced, to
    the bit."""

    @given(histories())
    @settings(max_examples=150, deadline=None)
    def test_every_degree_and_late_read_is_the_polyfit_fit(self, case):
        p_min, p_max, samples, n = case
        m = OnlineModeler(p_min, p_max, QuadraticPowerModel.from_anchors(2.0, 1.3, p_min, p_max))
        for sample in samples:
            m.history.append(sample)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", np.exceptions.RankWarning)
            assert resolved(m, n) == parent_fit(m.history, n, p_min, p_max)
            assert resolved(m, len(samples)) == parent_fit(m.history, len(samples), p_min, p_max)

    def test_each_degree_is_reached(self):
        seen = set()
        for caps in ([200.0] * 5, [200.0, 230.0] * 3, [140.0, 200.0, 280.0] * 2):
            m = make_modeler()
            for k, cap in enumerate(caps):
                m.history.append(EpochSample(cap, 1.0 + (280.0 - cap) / 300.0 + 0.01 * k, 3, k))
            coeffs, _ = resolved(m, len(caps))
            assert (coeffs, _) == parent_fit(m.history, len(caps), 140.0, 280.0)
            seen.add(degree_of(coeffs))
        assert seen == {0, 1, 2}

    def test_a_rank_deficient_fit_still_warns(self):
        """Caps 50 W apart around 10 GW: the scaled Vandermonde columns are
        parallel to within ``rcond``, and the warning ``np.polyfit`` raised
        is still raised, from the same fit."""
        p_min, p_max = 1e10, 1e10 + 200.0
        m = OnlineModeler(p_min, p_max, QuadraticPowerModel(0.0, 0.0, 1.0, p_min, p_max))
        for k in range(4):
            m.history.append(EpochSample(p_min + 50.0 * k, 1.0 + 0.1 * k, 6, float(k)))
        with pytest.warns(np.exceptions.RankWarning):
            expected = parent_fit(m.history, 4, p_min, p_max)
        with pytest.warns(np.exceptions.RankWarning, match="poorly conditioned"):
            assert resolved(m, 4) == expected

    def test_after_a_drift_reset_and_a_seed_fit(self):
        """A 1.6× phase change resets the history; the fits due after it, and
        the first one due after a ``seed_fit``, are the polyfit fits over
        the new history."""
        m = make_modeler(detect_drift=True)
        rng = np.random.default_rng(1)
        t, epochs, checked = 0.0, 0, 0
        m.observe(t, epochs, 200.0)
        for k in range(260):
            if k == 200:
                m.seed_fit(QuadraticPowerModel.from_anchors(1.7, 1.2, 140.0, 280.0))
            cap = float(rng.uniform(140.0, 280.0))
            m.set_cap(t, cap)
            t += 6.0 * (1.6 if k >= 120 else 1.0) * (1.0 + 0.5 * (280.0 - cap) / 140.0)
            epochs += 6
            m.observe(t, epochs, cap)
            if isinstance(m._fit, int):
                n = m._fit
                expected = parent_fit(m.history, n, 140.0, 280.0)
                assert resolved(m, n) == expected
                checked += 1
        assert m.drift_resets == 1 and checked > 50


def parent_is_monotone(model, samples=64):
    """``is_monotone_decreasing`` over a fresh ``np.linspace``, verbatim."""
    ps = np.linspace(model.p_min, model.p_max, samples)
    ts = model.time_per_epoch(ps)
    return bool(np.all(np.diff(ts) <= 1e-12))


class TestMonotoneGrid:
    """The verdict on a cached clipped grid equals the one on a fresh
    ``linspace``."""

    @pytest.mark.parametrize("end", ["p_min", "p_max"])
    @pytest.mark.parametrize("curvature", [1e-4, -1e-4, 1e-12])
    def test_a_vertex_half_a_watt_inside_a_range_end(self, end, curvature):
        p_min, p_max = 140.0, 280.0
        v = p_min + 0.5 if end == "p_min" else p_max - 0.5
        model = QuadraticPowerModel(curvature, -2.0 * curvature * v, 2.0 + curvature * v * v,
                                    p_min, p_max)
        for samples in (2, 64, 1000):
            assert model.is_monotone_decreasing(samples) == parent_is_monotone(model, samples)

    @given(
        st.floats(-1e-3, 1e-3), st.floats(-0.2, 0.2), st.floats(0.0, 50.0),
        st.floats(50.0, 200.0), st.floats(1.0, 300.0), st.sampled_from([1, 2, 3, 64, 100]),
    )
    @settings(max_examples=100, deadline=None)
    def test_the_verdict_is_the_linspace_verdict(self, a, b, c, p_min, width, samples):
        model = QuadraticPowerModel(a, b, c, p_min, p_min + width)
        assert model.is_monotone_decreasing(samples) == parent_is_monotone(model, samples)
        twin = QuadraticPowerModel(a, b, c, p_min, p_min + width)  # the grid is shared
        assert twin.is_monotone_decreasing(samples) == parent_is_monotone(twin, samples)
