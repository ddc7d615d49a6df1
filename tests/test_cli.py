"""Tests for the ``anor`` command-line interface."""

from pathlib import Path

import pytest

from repro.cli import _COMMANDS, main
from repro.experiments import figures
from repro.experiments.figures import FIGURES, Figure


class TestParser:
    def test_requires_subcommand(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_all_figures_registered(self):
        assert set(FIGURES) == {f"fig{i}" for i in (3, 4, 5, 6, 7, 8, 9, 10, 11)}
        assert set(_COMMANDS) == {"resilience", "all"}

    def test_help_lists_commands(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        assert "fig4" in out

    def test_jobs_without_seeds_is_a_usage_error(self, monkeypatch, capsys):
        """One run has nothing to fan out: ``--jobs`` above 1 needs ``--seeds``
        on every command but ``all``, and the run never starts."""
        from repro import cli

        ran = []
        monkeypatch.setattr(cli, "_drill", lambda *a, **k: ran.append(a) or ("", True))
        monkeypatch.setattr(figures, "report", lambda *a: ran.append(a) or "")
        for argv in (["fig9", "--jobs", "4"], ["resilience", "--drill", "shed", "--jobs", "2"]):
            with pytest.raises(SystemExit) as exit_:
                main([*argv, "--quick"])
            assert exit_.value.code == 2
            assert "--jobs" in (err := capsys.readouterr().err) and "--seeds" in err
        assert ran == []
        assert main(["fig9", "--quick", "--jobs", "1"]) == 0
        assert main(["resilience", "--drill", "shed", "--quick", "--jobs", "1"]) == 0
        assert len(ran) == 2

    def test_csv_with_seeds_is_a_usage_error(self, monkeypatch, capsys, tmp_path):
        """A sweep makes one series per seed and ``--csv`` names one file: the
        pair is refused before anything runs, not run without the file."""
        ran = []
        monkeypatch.setattr(figures, "report", lambda *a, **k: ran.append(a) or "")
        csv = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exit_:
            main(["fig4", "--quick", "--seeds", "0,1", "--csv", str(csv)])
        assert exit_.value.code == 2
        assert "--csv" in (err := capsys.readouterr().err) and "--seeds" in err
        assert ran == [] and not csv.exists()

    def test_a_figure_runs_at_its_own_seed_unless_given_one(self, monkeypatch, capsys):
        """No ``--seed`` leaves the run function's default seed, as the
        figure's bench and claims use it; a seedless figure ignores one."""
        monkeypatch.setitem(FIGURES, "fig7", Figure("", f"{__name__}:_seeded"))
        monkeypatch.setitem(FIGURES, "fig4", Figure("", f"{__name__}:_seedless"))
        for argv, printed in (
            (["fig7"], "seed=1"), (["fig7", "--seed", "0"], "seed=0"),
            (["fig4", "--seed", "3"], "no seed"),
        ):
            assert main(argv) == 0
            assert capsys.readouterr().out.startswith(printed)


def _seeded(*, seed: int = 1) -> str:
    return f"seed={seed}"


def _seedless() -> str:
    return "no seed"


# The fake figures' table formatter, found beside their run functions as a
# figure module's is.
format_table = str


class TestExecution:
    def test_fig4_quick_runs(self, capsys):
        assert main(["fig4", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "even-power" in out
        assert "completed in" in out

    def test_fig5_quick_runs(self, capsys):
        assert main(["fig5", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "ft(unknown)" in out


def _stub_drill(monkeypatch, ok: bool) -> list[str]:
    """Replace the drill runner with one that records the name it was given."""
    from repro import cli

    seen: list[str] = []

    def fake(name, *args, **kwargs):
        seen.append(name)
        return "table", ok

    monkeypatch.setattr(cli, "_drill", fake)
    return seen


class TestResilienceDrills:
    def test_drill_runs_scores_and_uses_the_given_checkpoint_dir(
        self, capsys, tmp_path
    ):
        argv = ["resilience", "--drill", "headnode", "--quick"]
        assert main(argv + ["--checkpoint-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "recovery_merges" in out
        assert "5/5 claims hold" in out
        assert sorted(p.name for p in tmp_path.iterdir()) == ["golden", "recovered"]

    @pytest.mark.parametrize(
        "drill",
        ["faults", "headnode", "partition", "byzantine", "soak", "forecast", "shed"],
    )
    def test_failed_claim_fails_the_caller(self, drill, monkeypatch, capsys):
        seen = _stub_drill(monkeypatch, ok=False)
        assert main(["resilience", "--drill", drill, "--quick"]) == 1
        assert seen == [drill]

    def test_default_drill_is_the_standard_fault_load(self, monkeypatch, capsys):
        seen = _stub_drill(monkeypatch, ok=True)
        assert main(["resilience", "--quick"]) == 0
        assert seen == ["faults"]

    def test_an_option_of_another_drill_is_a_usage_error(self, monkeypatch, capsys):
        seen = _stub_drill(monkeypatch, ok=True)
        for argv in (
            ["--drill", "partition", "--checkpoint-dir", "ckpt"],
            ["--drill", "faults", "--episodes", "5"],
            ["--episodes", "5"],
        ):
            with pytest.raises(SystemExit) as exit_:
                main(["resilience", "--quick", *argv])
            assert exit_.value.code == 2
            assert "not an option of --drill" in capsys.readouterr().err
        assert seen == []
        assert main(["resilience", "--drill", "soak", "--episodes", "5"]) == 0
        assert seen == ["soak"]

    def test_a_seed_sweep_runs_the_named_drill_and_fails_on_any_seed(
        self, monkeypatch, capsys
    ):
        from repro import cli

        calls = []

        def fake(name, quick, seed, **params):
            calls.append((name, quick, seed, params))
            return f"report of seed {seed}", seed != 2

        monkeypatch.setattr(cli, "_drill", fake)
        argv = ["resilience", "--drill", "headnode", "--checkpoint-dir", "ckpt", "--quick"]
        assert main(argv + ["--seeds", "1,2"]) == 1
        assert calls == [
            ("headnode", True, s, {"checkpoint_dir": str(Path("ckpt") / f"seed-{s}")})
            for s in (1, 2)
        ]
        out = capsys.readouterr().out
        assert "resilience --drill headnode[seed=2]" in out
        assert "report of seed 2" in out

    def test_one_drill_option_replaces_the_flags_and_the_plan_command(self):
        for argv in (
            ["resilience", "--drill", "nonesuch"],
            ["resilience", "--shed"],
            ["plan", "--drill"],
        ):
            with pytest.raises(SystemExit):
                main(argv)


def _fake_run(*, seed: int = 0, scale: str = "paper") -> str:
    # Module-level so the pool can pickle it by qualified name.
    return f"fake(scale={scale}, seed={seed}, value={seed * 11})"


def _fake_resilience(quick: bool, seed: int | None) -> str:
    return f"fake drill(quick={quick}, seed={seed})"


def _fake_table(monkeypatch) -> None:
    """``anor all`` over one fake figure row and a fake drill."""
    from repro import cli

    row = Figure("fake", f"{__name__}:_fake_run", quick={"scale": "quick"})
    monkeypatch.setattr(figures, "FIGURES", {"figx": row})
    monkeypatch.setattr(cli, "_resilience", _fake_resilience)


class TestRunAllSeedSweep:
    def test_sweep_matches_serial_and_labels_seeds(self, monkeypatch):
        from repro import cli

        _fake_table(monkeypatch)
        serial = cli._run_all(True, 0, None, jobs=1, seeds=[0, 1, 2])
        parallel = cli._run_all(True, 0, None, jobs=2, seeds=[0, 1, 2])

        def tables(text: str) -> list[str]:
            # Header lines carry wall-clock timings; everything else must
            # be byte-identical between serial and pooled runs.
            return [ln for ln in text.splitlines() if not ln.startswith("===")]

        assert tables(serial) == tables(parallel)
        assert "[seed=2] figx" in parallel
        assert "fake(scale=quick, seed=2, value=22)" in parallel

    def test_single_seed_output_unchanged(self, monkeypatch):
        from repro import cli

        _fake_table(monkeypatch)
        out = cli._run_all(True, 5, None, jobs=1)
        assert "=== figx" in out and "[seed=" not in out
        assert "fake(scale=quick, seed=5, value=55)" in out


class TestProfileCommand:
    def test_profile_prints_hot_functions(self, capsys, tmp_path):
        out_file = tmp_path / "report.txt"
        assert main(
            ["profile", "fig4", "--quick", "--top", "5", "--out", str(out_file)]
        ) == 0
        printed = capsys.readouterr().out
        assert "profile: fig4" in printed
        assert "cumulative" in printed
        assert "ncalls" in printed
        assert out_file.read_text().rstrip("\n") == printed.rstrip("\n")

    def test_profile_rejects_all(self):
        with pytest.raises(SystemExit):
            main(["profile", "all"])

    def test_profile_sort_key(self, capsys):
        assert main(["profile", "fig4", "--quick", "--sort", "tottime"]) == 0
        assert "sorted by tottime" in capsys.readouterr().out
