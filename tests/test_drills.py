"""Golden pin of the seven resilience drills (``--quick``, default seeds).

``tests/golden/drills/<name>.json`` holds each drill's metrics dict and its
scorecard (claim statement + verdict).  They were first recorded from the
seven hand-rolled runners the scenario kernel replaced, so these tests are
the proof that the refactor changed no number and no verdict.  To re-record
after an *intentional* behaviour change::

    PYTHONPATH=src:. python -m tests.test_drills
"""

from __future__ import annotations

import json
import math
import os
import re
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

from repro.experiments.resilience import SCENARIOS, DrillRun, format_drill, run_drill
from repro.experiments.scorecard import score

GOLDEN_DIR = Path(__file__).parent / "golden" / "drills"

#: The golden soak is one episode long.
OVERRIDES = {"soak": {"episodes": 1}}


@pytest.fixture(scope="module")
def drills():
    """Each quick drill runs once per module, on first use."""
    cache: dict[str, DrillRun] = {}

    def get(name: str) -> DrillRun:
        if name not in cache:
            cache[name] = run_drill(name, quick=True, **OVERRIDES.get(name, {}))
        return cache[name]

    return get


def record(res: DrillRun) -> dict:
    card = score(res.name, res.metrics)
    return {
        "metrics": res.metrics,
        "scorecard": [
            {"statement": o.claim.statement, "passed": o.passed}
            for o in card.outcomes
        ],
    }


def assert_same(got, want, where: str) -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            assert_same(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, (list, tuple)) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-12), (
            f"{where}: {got!r} != {want!r}"
        )
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_drill_matches_golden(name, drills):
    path = GOLDEN_DIR / f"{name}.json"
    assert path.exists(), (
        f"missing {path}; record with `PYTHONPATH=src:. python -m tests.test_drills`"
    )
    # Through JSON and back, so tuples/ints compare the way they were stored.
    got = json.loads(json.dumps(record(drills(name))))
    assert_same(got, json.loads(path.read_text()), name)


def test_every_quick_drill_passes_its_scorecard(drills):
    for name in SCENARIOS:
        card = score(name, drills(name).metrics)
        assert card.all_passed, card.render()


def test_the_report_prints_every_metric(drills):
    for name in SCENARIOS:
        report = format_drill(drills(name))
        for key in drills(name).metrics:
            assert re.search(rf"^ *{re.escape(key)} *:", report, re.M), (name, key)


def test_drill_scorecard_detects_breakage(drills):
    """Corrupting one arm must flip its claims to FAIL, not pass silently."""
    res = drills("headnode")
    broken = dict(res.arms)
    arm = broken["recovered"]
    # The recovered arm forgets half its completions and never re-converges.
    broken["recovered"] = replace(
        arm,
        result=replace(
            arm.result,
            completed=arm.result.completed[::2],
            power_trace=arm.result.power_trace * 2.0,
        ),
    )
    metrics = SCENARIOS["headnode"].metrics(broken, res.params)
    card = score("headnode", metrics)
    failed = {o.claim.statement for o in card.outcomes if not o.passed}
    assert any("lost to the outage" in s for s in failed), card.render()
    assert any("re-converges" in s for s in failed), card.render()
    # Claims about the untouched parts of the run still hold.
    assert any(o.passed for o in card.outcomes)


def test_a_soak_is_fixed_by_its_seed_and_episode_count():
    """The same seed and count give the same report, and a longer soak only
    appends episodes."""
    two = run_drill("soak", seed=3, episodes=2).metrics
    assert json.dumps(two) == json.dumps(run_drill("soak", seed=3, episodes=2).metrics)
    three = run_drill("soak", seed=3, episodes=3).metrics
    assert three["episodes"][:2] == two["episodes"]
    assert [ep["seed"] for ep in three["episodes"]] == [3, 4, 5]


@pytest.mark.parametrize("episodes", [0, 1.5])
def test_a_bad_episode_count_is_rejected_before_any_run(episodes, monkeypatch):
    from repro.experiments import resilience

    built = []
    monkeypatch.setattr(
        resilience, "build_demand_response_system", lambda **kw: built.append(kw)
    )
    with pytest.raises(ValueError, match="episodes must be a positive integer"):
        run_drill("soak", episodes=episodes)
    assert not built


def test_unknown_parameter_rejected():
    with pytest.raises(TypeError, match="no parameter"):
        run_drill("shed", quick=True, partition_time=10.0)


def test_headnode_drill_leaves_no_checkpoints_behind():
    """With no ``checkpoint_dir`` the drill's checkpoints are temporary."""
    before = set(os.listdir(tempfile.gettempdir()))
    res = run_drill(
        "headnode", quick=True, duration=120.0, crash_time=40.0, down_for=10.0
    )
    assert res.metrics["checkpoints_written"] > 0
    left = set(os.listdir(tempfile.gettempdir())) - before
    assert not [entry for entry in left if entry.startswith("anor-headnode-")]


def test_ci_drills_matrix_names_every_scenario():
    """CI's ``drills`` job is a hand-written matrix: it must list exactly
    the drills :data:`SCENARIOS` defines, or a new drill never runs there."""
    workflow = Path(__file__).parent.parent / ".github" / "workflows" / "ci.yml"
    lines = re.findall(r"^\s*drill:\s*\[(.*)\]\s*$", workflow.read_text(), re.M)
    assert len(lines) == 1, lines
    assert {name.strip() for name in lines[0].split(",")} == set(SCENARIOS)


if __name__ == "__main__":  # pragma: no cover - re-recording entry point
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    for drill in sorted(SCENARIOS):
        result = run_drill(drill, quick=True, **OVERRIDES.get(drill, {}))
        text = json.dumps(record(result), indent=1, sort_keys=True)
        (GOLDEN_DIR / f"{drill}.json").write_text(text + "\n")
        print(f"recorded {drill}")
