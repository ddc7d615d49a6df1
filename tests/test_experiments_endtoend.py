"""Slimmed-down end-to-end experiment checks (Figs. 3, 6, 9, 10, 11).

These run the real harnesses at reduced scale so the suite stays fast while
still pinning the paper's qualitative results.
"""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.experiments import fig3, fig6, fig9, fig10, fig11


@pytest.fixture(scope="module")
def char_result():
    return fig3.characterize_job_types(
        caps=[140.0, 180.0, 220.0, 260.0, 280.0], runs_per_cap=3, seed=0, tick=0.5
    )


class TestFig3:
    def test_all_types_characterized(self, char_result):
        assert set(char_result.runtimes) == set(fig3.PAPER_R2)

    def test_relative_time_ordering(self, char_result):
        """EP must look most sensitive, IS least, in the measured curves."""
        rel = {
            name: char_result.relative_times(name)[0][0]  # at 140 W
            for name in char_result.runtimes
        }
        assert rel["ep"] == max(rel.values())
        assert rel["is"] == min(rel.values())

    def test_fit_r2_reasonable(self, char_result):
        """Sensitive types fit tightly; SP is the loosest (paper: 0.84)."""
        assert char_result.r2["bt"] > 0.95
        assert char_result.r2["ep"] > 0.95
        assert char_result.r2["sp"] < char_result.r2["bt"]

    def test_relative_time_at_280_is_one(self, char_result):
        for name in char_result.runtimes:
            mean, _ = char_result.relative_times(name)
            assert mean[-1] == pytest.approx(1.0, abs=0.05)

    def test_fitted_models_trend_downward(self, char_result):
        # Types whose true curve flattens below 280 W (the cap stops binding
        # at p_demand) can yield fits that tick up slightly near the top of
        # the range; the overall trend must still be downward.
        for name, model in char_result.models.items():
            assert model.time_at(140.0) > model.time_at(280.0), name

    def test_table_renders(self, char_result):
        table = fig3.format_table(char_result)
        assert "paper R²" in table

    def test_measure_run_respects_cap(self):
        from repro.workloads.nas import NAS_TYPES
        slow = fig3.measure_run(NAS_TYPES["mg"], 140.0, seed=0, tick=0.5)
        fast = fig3.measure_run(NAS_TYPES["mg"], 280.0, seed=0, tick=0.5)
        assert slow / fast == pytest.approx(NAS_TYPES["mg"].sensitivity, rel=0.1)


@pytest.fixture(scope="module")
def fig6_result():
    return fig6.run_fig6(trials=2, seed=0, tick=1.0)


class TestFig6:
    def test_all_policies_present(self, fig6_result):
        assert len(fig6_result.slowdowns) == 6

    def test_agnostic_hurts_bt_more_than_sp(self, fig6_result):
        jobs = fig6_result.slowdowns["Performance Agnostic"]
        assert np.mean(jobs["bt"]) > np.mean(jobs["sp"]) + 0.03

    def test_aware_narrows_gap(self, fig6_result):
        agnostic = fig6_result.slowdowns["Performance Agnostic"]
        aware = fig6_result.slowdowns["Performance Aware"]
        gap_agnostic = np.mean(agnostic["bt"]) - np.mean(agnostic["sp"])
        gap_aware = abs(np.mean(aware["bt"]) - np.mean(aware["sp"]))
        assert gap_aware < gap_agnostic

    def test_misclassification_slows_bt(self, fig6_result):
        aware = np.mean(fig6_result.slowdowns["Performance Aware"]["bt"])
        mis = np.mean(fig6_result.slowdowns["Under-estimate bt"]["bt=is"])
        assert mis > aware + 0.05

    def test_feedback_recovers(self, fig6_result):
        """The paper's central claim: feedback recovers lost performance."""
        without = np.mean(fig6_result.slowdowns["Under-estimate bt"]["bt=is"])
        with_fb = np.mean(
            fig6_result.slowdowns["Under-estimate bt, with feedback"]["bt=is"]
        )
        assert with_fb < without

    def test_overestimate_sp_hurts_bt(self, fig6_result):
        aware = np.mean(fig6_result.slowdowns["Performance Aware"]["bt"])
        over = np.mean(fig6_result.slowdowns["Over-estimate sp"]["bt"])
        assert over > aware + 0.05

    def test_table_renders(self, fig6_result):
        assert "with feedback" in fig6.format_table(fig6_result)


class TestFig7And8Smoke:
    def test_fig7_feedback_recovers(self):
        result = fig6.run_fig7(trials=1, seed=0, tick=1.0)
        without = np.mean(result.slowdowns["Under-estimate bt"]["bt=is"])
        with_fb = np.mean(
            result.slowdowns["Under-estimate bt, with feedback"]["bt=is"]
        )
        assert with_fb <= without + 0.02

    def test_fig8_same_type_pair_agnostic_equals_aware(self):
        """Figs. 7–8: identical jobs ⇒ both policies make the same choice."""
        result = fig6.run_fig8(trials=1, seed=0, tick=1.0)
        agnostic = np.mean(result.slowdowns["Performance Agnostic"]["sp"])
        aware = np.mean(result.slowdowns["Performance Aware"]["sp"])
        assert agnostic == pytest.approx(aware, abs=0.04)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9.run_fig9(duration=600.0, seed=0, warmup=240.0)

    def test_errors_within_constraint_band(self, result):
        # Short run: allow some slack vs the full-hour behaviour.
        assert result.error_at_90th() < 0.45

    def test_measured_tracks_target_mean(self, result):
        trace = result.result.power_trace
        late = trace[trace[:, 0] >= 240.0]
        assert late[:, 2].mean() == pytest.approx(late[:, 1].mean(), rel=0.1)

    def test_target_stays_in_committed_band(self, result):
        trace = result.result.power_trace
        assert trace[:, 1].min() >= result.average_power - result.reserve - 1e-6
        assert trace[:, 1].max() <= result.average_power + result.reserve + 1e-6

    def test_table_renders(self, result):
        assert "tracking error" in fig9.format_table(result)


class TestFig10Smoke:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10.run_fig10(duration=900.0, trials=1, seed=0, warmup=240.0)

    def test_uniform_hurts_sensitive_types_most(self, result):
        means = result.mean_slowdown("Uniform")
        sensitive = np.mean([means["bt"], means["lu"], means["ft"]])
        insensitive = np.mean([means["sp"], means["mg"]])
        assert sensitive > insensitive

    def test_characterized_improves_worst_type(self, result):
        _, worst_uniform = result.slowest_type("Uniform")
        _, worst_char = result.slowest_type("Characterized")
        assert worst_char < worst_uniform

    def test_misclassified_hurts_bt(self, result):
        assert (
            result.mean_slowdown("Misclassified")["bt"]
            > result.mean_slowdown("Characterized")["bt"]
        )

    def test_adjusted_recovers(self, result):
        assert (
            result.mean_slowdown("Adjusted")["bt"]
            < result.mean_slowdown("Misclassified")["bt"]
        )

    def test_table_renders(self, result):
        assert "slowest type" in fig10.format_table(result)


class TestFig11Smoke:
    @pytest.fixture(scope="class")
    def result(self):
        # Bid scaled down with the cluster (defaults are for 1000 nodes).
        return fig11.run_fig11(
            bands=(0.0, 0.15, 0.30), trials=2, num_nodes=400, node_scale=10,
            duration=1500.0, seed=0,
            average_power=60_000.0, reserve=6_000.0,
        )

    def test_variation_worsens_qos(self, result):
        """§6.4: more variation ⇒ more QoS degradation (averaged over types)."""
        mean_by_band = np.array(
            [np.mean([result.qos90[n][bi].mean() for n in result.qos90])
             for bi in range(len(result.bands))]
        )
        assert mean_by_band[-1] > mean_by_band[0]

    def test_tracking_within_constraint(self, result):
        """§6.4: tracking stays within 30 % at 90th pct at every level."""
        assert result.tracking90.mean(axis=1).max() < 0.30

    def test_mean_and_band_shapes(self, result):
        mean, half = result.mean_and_band("bt")
        assert mean.shape == (3,)
        assert (half >= 0).all()

    def test_table_renders(self, result):
        assert "QoS limit" in fig11.format_table(result)


class TestFig11ConfidenceBand:
    def test_mean_and_band_values(self):
        """Pinned from the tree that imported scipy.stats at module level."""
        data = np.array([[0.5, 1.5, 1.0, 2.0], [3.0, 5.5, 4.25, 6.0]])
        result = fig11.Fig11Result(
            bands=(0.0, 0.15), qos90={"bt": data, "one": data[:, :1]},
            tracking90=np.zeros((2, 4)), qos_limit=5.0,
        )
        mean, half = result.mean_and_band("bt")
        assert mean.tolist() == [1.25, 4.6875]
        assert half.tolist() == [0.7595447825467455, 1.5818785194066423]
        mean, half = result.mean_and_band("one")
        assert mean.tolist() == [0.5, 3.0] and half.tolist() == [0.0, 0.0]

    def test_importing_the_sweep_does_not_import_scipy(self):
        """Only the confidence band needs ``scipy.stats`` (0.6 s, 60 MiB);
        ``run_fig11`` and its benchmark run without it."""
        code = (
            "import sys, repro.experiments.fig11; "
            "sys.exit(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
