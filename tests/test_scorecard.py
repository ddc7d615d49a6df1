"""Tests for the reproduction scorecard (claims over quick experiment runs)."""

import ast
from pathlib import Path

import numpy as np

from repro.cli import _COMMANDS
from repro.core.framework import AnorResult
from repro.experiments import fig4, fig5
from repro.experiments.fig9 import Fig9Result
from repro.experiments.scorecard import CLAIMS, Claim, Scorecard, score

BENCHMARKS = Path(__file__).parent.parent / "benchmarks"


class TestClaimMachinery:
    def test_passing_claim(self):
        claim = Claim("figX", "two is two", lambda r: r == 2)
        outcome = claim.evaluate(2)
        assert outcome.passed
        assert outcome.error is None

    def test_failing_claim(self):
        claim = Claim("figX", "two is three", lambda r: r == 3)
        assert not claim.evaluate(2).passed

    def test_crashing_check_is_a_failure(self):
        claim = Claim("figX", "boom", lambda r: r.no_such_attr)
        outcome = claim.evaluate(object())
        assert not outcome.passed
        assert "AttributeError" in outcome.error

    def test_scorecard_summary(self):
        claims = [
            Claim("f", "yes", lambda r: True),
            Claim("f", "no", lambda r: False),
        ]
        card = Scorecard([c.evaluate(None) for c in claims])
        assert card.passed == 1
        assert card.total == 2
        assert not card.all_passed
        text = card.render()
        assert "[PASS] f: yes" in text
        assert "[FAIL] f: no" in text
        assert "1/2" in text


class TestFigureScorecards:
    """The offline figures are cheap enough to score directly in tests."""

    def test_fig4_claims_hold(self):
        result = fig4.run_fig4(n_budgets=15)
        card = score("fig4", result)
        assert card.all_passed, card.render()

    def test_fig5_claims_hold(self):
        result = fig5.run_fig5(n_budgets=12)
        card = score("fig5", result)
        assert card.all_passed, card.render()

    def test_fig4_scorecard_detects_breakage(self):
        """Corrupting the result must flip claims to FAIL, not pass silently."""
        result = fig4.run_fig4(n_budgets=10)
        # Swap the two policies' series: even-power now looks 'better'.
        result.slowdowns["even-power"], result.slowdowns["even-slowdown"] = (
            result.slowdowns["even-slowdown"],
            result.slowdowns["even-power"],
        )
        card = score("fig4", result)
        assert not card.all_passed

    def test_fig5_scorecard_detects_breakage(self):
        result = fig5.run_fig5(n_budgets=10)
        for case in result.slowdowns.values():
            case["mischaracterized"] = {
                k: np.zeros_like(v) for k, v in case["mischaracterized"].items()
            }
        card = score("fig5", result)
        assert not card.all_passed

    def test_fig9_scorecard_detects_breakage(self):
        """A synthetic hour on target passes the fig9 rows; the same hour
        with the measured column doubled must fail them."""
        t = np.arange(0.0, 3600.0)
        target = 3400.0 + 1000.0 * np.sin(t / 300.0)
        for measured, holds in ((target, True), (2.0 * target, False)):
            trace = np.column_stack([t, target, measured])
            run = AnorResult(
                completed=[], power_trace=trace, unstarted_jobs=0, duration=3600.0
            )
            result = Fig9Result(
                result=run, average_power=3400.0, reserve=1050.0, warmup=300.0
            )
            card = score("fig9", result)
            assert card.all_passed is holds, card.render()


def _score_calls(fn: ast.FunctionDef) -> dict[str, str]:
    """``name = score("<figure>", ...)`` assignments in a test function."""
    calls = {}
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Name)
            and node.value.func.id == "score"
            and node.value.args
            and isinstance(node.value.args[0], ast.Constant)
        ):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    calls[target.id] = node.value.args[0].value
    return calls


def test_every_figure_command_has_claims():
    """``anor figN`` regenerates a figure, so the figure has claims rows."""
    assert {name for name in _COMMANDS if name.startswith("fig")} <= set(CLAIMS)


def test_figure_benches_assert_only_their_scorecard():
    """A figure bench states no claim of its own: its one ``assert`` is on
    a ``scorecard.score(...)`` card, and every :data:`CLAIMS` entry is
    scored by some bench, so a row and a bench cannot drift apart."""
    scored = set()
    paths = sorted(BENCHMARKS.glob("test_fig*.py")) + [BENCHMARKS / "test_qos_trace.py"]
    for path in paths:
        tree = ast.parse(path.read_text())
        imported = {
            alias.name
            for node in tree.body
            if isinstance(node, ast.ImportFrom)
            and node.module == "repro.experiments.scorecard"
            for alias in node.names
        }
        assert "score" in imported, path.name
        tests = [
            node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name.startswith("test_")
        ]
        assert tests, path.name
        for fn in tests:
            where = f"{path.name}::{fn.name}"
            asserts = [n for n in ast.walk(fn) if isinstance(n, ast.Assert)]
            assert len(asserts) == 1, where
            test = asserts[0].test
            cards = _score_calls(fn)
            assert (
                isinstance(test, ast.Attribute)
                and test.attr == "all_passed"
                and isinstance(test.value, ast.Name)
                and test.value.id in cards
            ), where
            scored.add(cards[test.value.id])
    assert scored == set(CLAIMS)
