"""Smoke test: quick mode end to end on the two workloads that between them
touch every layer.  Run with ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
WORKLOADS = ("dr16_hardened", "tabsim_fig11")


def _bench(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "bench.py"), *args],
        stdout=subprocess.PIPE, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory) -> list[dict]:
    out = tmp_path_factory.mktemp("e2e")
    results = []
    for tag in ("a", "b"):
        path = out / f"{tag}.json"
        args = [arg for w in WORKLOADS for arg in ("--workload", w)]
        proc = _bench("--quick", "--output", str(path), *args)
        assert proc.returncode == 0, proc.stdout
        results.append(json.loads(path.read_text()))
    return results


def test_every_manifest_metric_is_reported(two_runs):
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == [
        "dr16_tick", "dr16_multirate", "dr16_hardened", "dr256_multirate", "tabsim_fig11",
    ]
    for name in WORKLOADS:
        result = two_runs[0]["workloads"][name]
        reported = set(result["end_to_end"]) | set(result["per_layer"])
        for metric in manifest["end_to_end"] + manifest["per_layer"]:
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", metric["name"])
            assert metric["name"] in reported, metric["name"]


def test_manifest_matches_the_tables_in_bench(monkeypatch):
    monkeypatch.syspath_prepend(str(HERE))
    import bench

    assert json.loads((ROOT / "BENCHMARK.json").read_text()) == bench.manifest()


def test_simulated_output_repeats_exactly(two_runs):
    a, b = (run["workloads"] for run in two_runs)
    for name in WORKLOADS:
        assert a[name]["sim_digests"] == b[name]["sim_digests"]
        assert not a[name]["problems"]
        for metric in ("jobs_completed", "track_err_p90", "qos_p90", "jobs_lost_share"):
            assert a[name]["end_to_end"][metric]["samples"] == b[name]["end_to_end"][metric]["samples"]
        counts = {k: v for k, v in a[name]["per_layer"].items() if k.endswith(".calls")}
        assert counts == {k: b[name]["per_layer"][k] for k in counts}


def test_layer_self_times_sum_to_the_traced_wall(two_runs):
    for name in WORKLOADS:
        result = two_runs[0]["workloads"][name]
        self_sum = sum(v for k, v in result["per_layer"].items() if k.endswith(".self_s"))
        assert self_sum == pytest.approx(result["traced_wall_s"], rel=0.01)


def test_hardened_only_layers_are_silent_elsewhere(two_runs):
    per_layer = two_runs[0]["workloads"]["tabsim_fig11"]["per_layer"]
    for layer in ("durable", "core.reliable", "core.audit", "plan", "telemetry", "facility"):
        assert per_layer[f"{layer}.calls"] == 0
    assert two_runs[0]["workloads"]["dr16_hardened"]["per_layer"]["durable.checkpoints"] > 0


def test_contract_line(two_runs):
    proc = _bench("--quick", "--workload", "dr16_hardened", "--seed", "3", "--repeats", "1", "--trace", "0")
    assert proc.returncode == 0
    line = json.loads(proc.stdout.splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True and line["attempted"] >= 1
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(line["metrics"]) == {m["name"] for m in manifest["end_to_end"]}


def test_compare_of_a_run_with_itself_has_no_worse_row(two_runs, tmp_path):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(two_runs[0]))
    proc = _bench("--compare", str(path), str(path))
    assert proc.returncode == 0, proc.stdout
    assert "0 rows worse" in proc.stdout


def test_an_unresolved_row_is_null_not_a_crash(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(HERE))
    import layers

    gone = layers.LayerRow("sched", "repro.sched.fcfs", "FcfsScheduler", "renamed_away", "acc")
    monkeypatch.setattr(layers, "LAYER_ROWS", (gone,))
    tracer = layers.Tracer("none", 0.0)
    tracer.install()
    tracer.uninstall()
    assert tracer.rows[gone] is None
    assert "does not resolve" in capsys.readouterr().err
