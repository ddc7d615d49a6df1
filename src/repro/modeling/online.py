"""Online power modeler: learns T(P) from epoch feedback (paper §4.2).

The modeler receives periodic status updates containing the job's cumulative
epoch count, and tracks the average power cap applied since the previous
epoch progress.  Each completed batch of epochs becomes one training sample
(average cap, seconds per epoch).  The model is refit whenever at least
``retrain_threshold`` (10 in the paper) new epochs have been recorded.  Jobs
that report no epochs, or that have not yet accumulated enough, use a
*default model* supplied by the caller.

A refit falls *due* in :meth:`OnlineModeler.observe` and is computed when
``model`` or ``fit_r2`` is first read (or the drift check needs it), over
the samples that existed when it fell due: most fits are overwritten by the
next one before anything looks at them (DESIGN §7, *Fits are computed when
read*).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from repro.modeling.quadratic import FitResult, QuadraticPowerModel

__all__ = ["EpochSample", "EpochHistory", "OnlineModeler"]

#: Epochs required before the first fit replaces the default model.
MIN_FIT_EPOCHS = 10
#: Epochs batched into one training sample.  Status updates arrive at ~1 Hz
#: while epochs take ~1–2 s, so a per-update sample would be quantised to
#: whole control periods; batching several averages the quantisation down
#: (§7.2: "we initially needed to gather many samples from the job runtime to
#: consistently map power caps to job performance metrics").
MIN_SAMPLE_EPOCHS = 6
#: Phase-change detection (§8): drift is declared when the last DRIFT_WINDOW
#: samples all miss the fit with one sign and, on average, by more than
#: DRIFT_THRESHOLD relative error.
DRIFT_WINDOW = 4
DRIFT_THRESHOLD = 0.10


@dataclass(frozen=True)
class EpochSample:
    """One training sample: ``epochs`` epochs completed at ``p_cap`` average cap."""

    p_cap: float
    seconds_per_epoch: float
    epochs: int
    timestamp: float


#: Rows a new history's column block holds; it doubles whenever it fills.
HISTORY_ROWS = 16
#: ``np.polyfit``'s default ``rcond`` is the sample count times this.
_EPS = np.finfo(float).eps


class EpochHistory:
    """Append-only record of epoch-timing samples as float columns.

    One ``(7, rows)`` block, a column per quantity and a row per sample:
    cap, seconds per epoch, epochs, timestamp, and three running aggregates
    of the samples up to and including that row — distinct 2 W cap buckets
    (``round(cap / 2)``, counted up to 3: the degree rule reads no further),
    the lowest cap and the highest.  A fit over the first ``n`` samples reads
    its arrays as views and its aggregates from row ``n − 1``; it grows only
    through :meth:`append`.
    """

    CAP, TIME, EPOCHS, STAMP, DISTINCT, LOW, HIGH = range(7)
    __slots__ = ("_block", "_n", "_buckets", "total_epochs", "cap_min", "cap_max")

    def __init__(self) -> None:
        self._block = np.empty((7, HISTORY_ROWS))
        self._n = 0
        self._buckets: tuple = ()  # the first (up to three) distinct buckets
        self.total_epochs = 0
        self.cap_min = math.inf  # over every sample: the last row's aggregates
        self.cap_max = -math.inf

    def append(self, sample: EpochSample) -> None:
        if sample.seconds_per_epoch <= 0:
            raise ValueError(f"non-positive time per epoch: {sample.seconds_per_epoch}")
        if sample.epochs < 1:
            raise ValueError(f"sample must cover ≥ 1 epoch, got {sample.epochs}")
        if not math.isfinite(sample.p_cap):
            raise ValueError(f"non-finite cap: {sample.p_cap}")
        n, block = self._n, self._block
        if n == block.shape[1]:
            self._block = np.empty((7, 2 * n))
            self._block[:, :n] = block
            block = self._block
        cap = sample.p_cap
        bucket = round(cap / 2.0)  # np.round's half-to-even, as an int
        if len(self._buckets) < 3 and bucket not in self._buckets:
            self._buckets += (bucket,)
        self.cap_min = min(self.cap_min, cap)
        self.cap_max = max(self.cap_max, cap)
        block[:, n] = (cap, sample.seconds_per_epoch, sample.epochs, sample.timestamp,
                       len(self._buckets), self.cap_min, self.cap_max)
        self._n = n + 1
        self.total_epochs += sample.epochs

    def __len__(self) -> int:
        return self._n

    @property
    def samples(self) -> list[EpochSample]:
        """The samples as records, built on each read (for reports and tests)."""
        columns = self._block[: self.STAMP + 1, : self._n].tolist()
        return [EpochSample(c, t, int(e), s) for c, t, e, s in zip(*columns)]

    def arrays(self, n: int | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(caps, times-per-epoch, weights) of the first ``n`` samples (all
        by default) as parallel arrays: views of the block, not copies."""
        block = self._block
        n = self._n if n is None else min(n, self._n)
        return block[self.CAP, :n], block[self.TIME, :n], block[self.EPOCHS, :n]

    def last_times(self, k: int) -> list[float]:
        """Seconds per epoch of the last ``k`` samples, oldest first."""
        return self._block[self.TIME, max(self._n - k, 0) : self._n].tolist()

    def prefix(self, n: int) -> tuple[int, float, float]:
        """(distinct 2 W buckets up to 3, lowest cap, highest cap) of the
        first ``n ≥ 1`` samples."""
        distinct, low, high = self._block[self.DISTINCT:, n - 1].tolist()
        return int(distinct), low, high


def _weighted_polyfit(x: np.ndarray, y: np.ndarray, w: np.ndarray, degree: int) -> np.ndarray:
    """``np.polyfit(x, y, degree, w=w)`` for 1-D float arrays, without its
    argument checks and copies: the same Vandermonde matrix, weighting,
    column scaling, ``lstsq`` with ``rcond = len(x)·eps``, unscaling and
    rank warning, so the same floats."""
    order = degree + 1
    lhs = np.vander(x, order)
    lhs *= w[:, np.newaxis]
    scale = np.sqrt((lhs * lhs).sum(axis=0))
    lhs /= scale
    c, _, rank, _ = np.linalg.lstsq(lhs, y * w, len(x) * _EPS)
    if rank != order:
        warnings.warn("Polyfit may be poorly conditioned", np.exceptions.RankWarning,
                      stacklevel=2)
    return c / scale


class OnlineModeler:
    """Builds and refreshes a job's quadratic power-performance model online.

    Parameters
    ----------
    p_min, p_max:
        Enforceable per-node cap range (W).
    default_model:
        Model used until a fit exists (§4.2: "jobs that report no epochs or
        that have yet to build a model use a default model").
    retrain_threshold:
        Minimum count of *new* epochs before refitting (paper: 10).
    detect_drift:
        Discard the history and relearn on a phase change (§8).
    """

    def __init__(
        self,
        p_min: float,
        p_max: float,
        default_model: QuadraticPowerModel,
        *,
        retrain_threshold: int = 10,
        detect_drift: bool = False,
    ) -> None:
        if retrain_threshold < 1:
            raise ValueError(f"retrain_threshold must be ≥ 1, got {retrain_threshold}")
        self.p_min = float(p_min)
        self.p_max = float(p_max)
        self.default_model = default_model
        self.retrain_threshold = int(retrain_threshold)
        self.history = EpochHistory()
        # The fit, or, while one is due and nothing has read it yet, the count
        # of leading ``history.samples`` it is over (the history is
        # append-only); only ``_resolve`` turns the count into the fit.  One
        # attribute, not two: whatever replaces a fit (a later due fit,
        # ``seed_fit``, a drift reset) drops a due one the same way, and a
        # modeler with more than 29 attributes stops sharing its keys with
        # its siblings (0.8 KiB each, 0.3 MiB at 256 nodes).
        self._fit: FitResult | int | None = None
        # Plain counts, for tests and reports: fits that fell due, and those
        # of them something went on to read.
        self.fits_due = 0
        self.fits_computed = 0
        # Moves whenever ``history`` or the fit moves and at no other time, so
        # a consumer can memoise anything derived from them on its value.
        self.revision = 0
        # True while the current fit came from seed_fit() rather than this
        # modeler's own history; cleared by the first genuine refit or drift
        # reset, so consumers can tell a carried-over model from a learned one.
        self.seeded = False
        self._epochs_since_fit = 0
        self._pending_epochs = 0
        self._saw_first_epoch = False
        # Phase-change (drift) detection: a drifted job has entered a new
        # power-sensitivity phase — discard the stale history and relearn.
        self.detect_drift = bool(detect_drift)
        self.drift_resets = 0
        self._recent_residuals: list[float] = []
        self._live_residuals: list[float] = []
        self._fit_cap_range: tuple[float, float] = (self.p_min, self.p_max)
        # Drift is scored against a slowly-refreshed snapshot of the fit,
        # not the live model: the regular refits (every ~10 epochs) absorb
        # new-phase samples faster than a residual window can fill, which
        # would mask exactly the shift we are trying to detect.
        self._drift_model: QuadraticPowerModel | None = None
        self._drift_model_age = 0
        # Integration state for the cap applied between epoch updates.
        self._last_time: float | None = None
        self._last_epochs = 0
        self._cap_time_integral = 0.0  # ∫ cap dt since last epoch progress
        self._span_seconds = 0.0
        self._current_cap: float | None = None

    # -------------------------------------------------------------- feeding

    def observe(self, timestamp: float, epoch_count: int, power_cap: float) -> bool:
        """Record a status update from the agent.

        ``epoch_count`` is cumulative; ``power_cap`` is the cap in force *now*
        (assumed held since the previous observation — the paper timestamps
        samples for exactly this asynchronous mapping, §7.2).  Returns True
        when the observation triggered a model refit.
        """
        if epoch_count < self._last_epochs:
            raise ValueError(
                f"epoch count went backwards: {self._last_epochs} -> {epoch_count}"
            )
        if self._last_time is None:
            # First observation: establishes the time origin only.
            self._last_time = float(timestamp)
            self._last_epochs = int(epoch_count)
            self._current_cap = float(power_cap)
            return False
        if not self._saw_first_epoch:
            # Time before the first epoch ever completes is job setup, not
            # compute: folding it into a sample would attribute batch-system
            # startup to whatever cap happened to be programmed (§7.2's
            # setup/teardown confounder).  Re-anchor and start clean.
            self._last_time = float(timestamp)
            self._current_cap = float(power_cap)
            self._cap_time_integral = 0.0
            self._span_seconds = 0.0
            if epoch_count > self._last_epochs:
                self._last_epochs = int(epoch_count)
                self._saw_first_epoch = True
            return False
        dt = float(timestamp) - self._last_time
        if dt < 0:
            raise ValueError(f"time went backwards: {self._last_time} -> {timestamp}")
        held_cap = self._current_cap if self._current_cap is not None else float(power_cap)
        self._cap_time_integral += held_cap * dt
        self._span_seconds += dt
        self._last_time = float(timestamp)
        self._current_cap = float(power_cap)

        new_epochs = int(epoch_count) - self._last_epochs
        self._last_epochs = int(epoch_count)
        self._pending_epochs += new_epochs
        if new_epochs == 0 or self._pending_epochs < MIN_SAMPLE_EPOCHS:
            return False
        if self._span_seconds <= 0:
            # Epochs arrived with no elapsed time — drop the degenerate sample.
            self._cap_time_integral = 0.0
            self._pending_epochs = 0
            return False
        avg_cap = self._cap_time_integral / self._span_seconds
        batched = self._pending_epochs
        self._pending_epochs = 0
        sample = EpochSample(
            p_cap=avg_cap,
            seconds_per_epoch=self._span_seconds / batched,
            epochs=batched,
            timestamp=float(timestamp),
        )
        if self._is_outlier(sample):
            # A sample vastly slower than recent history is a measurement
            # artifact (e.g. a long observation gap folded into one span),
            # not a performance signal — drop it rather than poison the fit.
            self._cap_time_integral = 0.0
            self._span_seconds = 0.0
            return False
        if self.detect_drift and self._check_drift(sample):
            return True
        self.history.append(sample)
        self.revision += 1
        self._cap_time_integral = 0.0
        self._span_seconds = 0.0
        self._epochs_since_fit += batched
        if (
            self._epochs_since_fit >= self.retrain_threshold
            and self.history.total_epochs >= MIN_FIT_EPOCHS
        ):
            self._refit()
            return True
        return False

    def _is_outlier(self, sample: EpochSample, *, factor: float = 6.0) -> bool:
        """True when the sample is impossibly slow vs. recent history."""
        times = self.history.last_times(10)
        if len(times) < 3:
            return False
        # np.median's value, written out: it costs 17 µs on ≤ 10 floats, and
        # importing ``statistics`` for its 0.4 µs one 0.6 MiB of resident set.
        times.sort()
        mid = len(times) // 2
        med = times[mid] if len(times) % 2 else (times[mid - 1] + times[mid]) / 2
        return sample.seconds_per_epoch > factor * med

    def _check_drift(self, sample: EpochSample) -> bool:
        """Detect a phase change; on drift, reset and start relearning."""
        if self._fit is None:
            return False
        # Only score samples at caps the model was actually trained on:
        # extrapolation error after a cap change is not a phase change.
        lo, hi = self._fit_cap_range
        margin = 0.05 * (self.p_max - self.p_min)
        if not (lo - margin <= sample.p_cap <= hi + margin):
            return False
        live = self._resolve().model
        if self._drift_model is None:
            self._drift_model = live
            self._drift_model_age = 0
        predicted = self._drift_model.time_at(sample.p_cap)
        live_predicted = live.time_at(sample.p_cap)
        if predicted <= 0 or live_predicted <= 0:
            return False
        residual = (sample.seconds_per_epoch - predicted) / predicted
        live_residual = (sample.seconds_per_epoch - live_predicted) / live_predicted
        self._recent_residuals.append(residual)
        self._live_residuals.append(live_residual)
        self._drift_model_age += 1
        if len(self._recent_residuals) > DRIFT_WINDOW:
            self._recent_residuals.pop(0)
            self._live_residuals.pop(0)
        # Trigger when the snapshot consistently misses (same sign, window
        # mean beyond the threshold — averaging beats per-sample timing
        # quantisation) AND the live fit is still off too (at half
        # threshold): the live fit absorbing the new phase slowly must not
        # mask the drift, but a live fit that has already converged means
        # the snapshot is merely stale.
        consistent = len(self._recent_residuals) >= DRIFT_WINDOW and (
            (
                all(r > 0 for r in self._recent_residuals)
                or all(r < 0 for r in self._recent_residuals)
            )
            and abs(float(np.mean(self._recent_residuals))) > DRIFT_THRESHOLD
            and abs(float(np.mean(self._live_residuals)))
            > 0.5 * DRIFT_THRESHOLD
        )
        if not consistent:
            # Refresh the reference occasionally so slow, legitimate model
            # evolution (better fits from more data) is not flagged later.
            if (
                self._drift_model_age >= 3 * DRIFT_WINDOW
                and abs(residual) <= DRIFT_THRESHOLD
            ):
                self._drift_model = live
                self._drift_model_age = 0
            return False
        # New phase: throw away the stale model and its training data.
        self.history = EpochHistory()
        self._fit = None
        self.revision += 1
        self.seeded = False
        self._epochs_since_fit = 0
        self._recent_residuals.clear()
        self._live_residuals.clear()
        self._cap_time_integral = 0.0
        self._span_seconds = 0.0
        self._drift_model = None
        self._drift_model_age = 0
        self.drift_resets += 1
        return True

    def seed_fit(
        self,
        model: QuadraticPowerModel,
        *,
        r2: float | None = None,
        cap_range: tuple[float, float] | None = None,
    ) -> None:
        """Install a previously validated fit (warm restart, §4.2 continuity).

        A restarted endpoint whose predecessor had already identified the
        job's T(P) curve should not re-fit from zero: the cluster tier hands
        back the last model it accepted, and the modeler resumes from it.
        The seeded fit behaves exactly like a learned one — it is shared
        upward, it suppresses exploration dither — until the modeler's own
        history produces a refit (or drift detection fires), at which point
        the live data wins.
        """
        self._fit = FitResult(
            model=model,
            r2=1.0 if r2 is None else float(r2),
            n_samples=0,
        )
        lo, hi = cap_range if cap_range is not None else (model.p_min, model.p_max)
        self._fit_cap_range = (float(lo), float(hi))
        self.seeded = True
        self.revision += 1

    def set_cap(self, timestamp: float, power_cap: float) -> None:
        """Note a cap change between status updates (keeps the average honest)."""
        if self._last_time is not None:
            dt = float(timestamp) - self._last_time
            if dt < 0:
                raise ValueError(f"time went backwards: {self._last_time} -> {timestamp}")
            held = self._current_cap if self._current_cap is not None else float(power_cap)
            self._cap_time_integral += held * dt
            self._span_seconds += dt
            self._last_time = float(timestamp)
        else:
            self._last_time = float(timestamp)
        self._current_cap = float(power_cap)

    # -------------------------------------------------------------- fitting

    def _refit(self) -> None:
        """Record that a fit over the history so far is due; no numerics.

        Everything a consumer can see without reading the fit itself moves
        here, exactly as if the fit had been computed: ``revision``,
        ``seeded``, the trained cap range, the retrain counter.
        """
        self._fit = len(self.history)
        self.fits_due += 1
        self.revision += 1
        self.seeded = False
        self._fit_cap_range = (self.history.cap_min, self.history.cap_max)
        self._epochs_since_fit = 0

    def _resolve(self) -> FitResult | None:
        """The current fit, computing the due one first if there is one.

        A due fit is over the first ``n`` samples, the history as it stood
        when the fit fell due, never over what was appended since: that is
        what makes reading late equal to fitting at once.
        """
        n = self._fit
        if not isinstance(n, int):
            return n
        caps, times, weights = self.history.arrays(n)
        distinct, low, high = self.history.prefix(n)
        # Model order is limited by how much of the cap range the samples
        # cover: a quadratic extrapolated from a narrow operating window is
        # wild, so we only allow degree 2 with wide coverage, degree 1 with
        # two meaningfully different caps (2 W buckets), else a constant.
        span = self.p_max - self.p_min
        coverage = (high - low) / span if span > 0 else 0.0
        degree = min(2 if coverage >= 0.3 else 1, distinct - 1)
        # np.average(times, weights=weights)'s arithmetic.
        t_bar = float(np.multiply(times, weights).sum() / weights.sum())
        if degree > 0:
            coeffs = _weighted_polyfit(caps, times, np.sqrt(weights), degree)
        else:
            coeffs = np.array([t_bar])
        padded = np.zeros(3)
        padded[3 - coeffs.size:] = coeffs
        model = QuadraticPowerModel(
            a=float(padded[0]), b=float(padded[1]), c=float(padded[2]),
            p_min=self.p_min, p_max=self.p_max,
        )
        pred = model.a * caps * caps + model.b * caps + model.c
        ss_res = float((weights * (times - pred) ** 2).sum())
        ss_tot = float((weights * (times - t_bar) ** 2).sum())
        r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
        self._fit = FitResult(model=model, r2=r2, n_samples=n)
        self.fits_computed += 1
        return self._fit

    # ------------------------------------------------------------- querying

    @property
    def has_fit(self) -> bool:
        """True once a fit exists or is due; asking computes nothing."""
        return self._fit is not None

    @property
    def model(self) -> QuadraticPowerModel:
        """The current best model: fitted if available, else the default."""
        fit = self._resolve()
        return fit.model if fit is not None else self.default_model

    @property
    def fit_r2(self) -> float | None:
        fit = self._resolve()
        return fit.r2 if fit is not None else None

    @property
    def epochs_observed(self) -> int:
        return self.history.total_epochs

    @property
    def cap_coverage(self) -> float:
        """Spread of observed caps as a fraction of the enforceable range.

        Feedback consumers gate on this: a model trained at a single
        operating point cannot say anything about power sensitivity.
        """
        if len(self.history) < 2:
            return 0.0
        span = self.p_max - self.p_min
        return (self.history.cap_max - self.history.cap_min) / span if span > 0 else 0.0
