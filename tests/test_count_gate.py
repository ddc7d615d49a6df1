"""The CI count gate (``benchmarks/perf/check_counts.py``) against results
files rebuilt from its own committed table: equal passes, anything moved,
missing or extra fails, and the table it prints is the one to re-record."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

PERF = Path(__file__).parent.parent / "benchmarks" / "perf"
TABLE = json.loads((PERF / "quick_counts.json").read_text())


def results_file(tmp_path, table):
    """A ``bench.py`` results file that carries exactly ``table``."""
    workloads = {}
    for name, row in table.items():
        row = dict(row)
        workloads[name] = {
            "sim_digests": row.pop("sim_digests"),
            "attempted": row.pop("attempted"),
            "failed": row.pop("failed"),
            "end_to_end": {"jobs_completed": {"samples": row.pop("jobs_completed")}},
            "per_layer": {**row, "hwsim.busy_s": 0.123},  # timings are not gated
        }
    path = tmp_path / "results.json"
    path.write_text(json.dumps({"workloads": workloads}))
    return path


def gate(path):
    return subprocess.run(
        [sys.executable, str(PERF / "check_counts.py"), str(path)],
        capture_output=True, text=True,
    )


def test_the_committed_table_passes_and_is_what_gets_printed(tmp_path):
    done = gate(results_file(tmp_path, TABLE))
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == TABLE
    assert {len(row) for row in TABLE.values()} == {39}


@pytest.mark.parametrize(
    "move, names",
    [
        (lambda t: t["dr16_tick"].update({"sched.calls": 16}), "dr16_tick sched.calls"),
        (lambda t: t["tabsim_fig11"].update(sim_digests=["0" * 64]), "tabsim_fig11 sim_digests"),
        (lambda t: t["dr16_hardened"].update(failed=1), "dr16_hardened failed"),
        (lambda t: t.pop("dr16_multirate"), "dr16_multirate budget.calls"),
    ],
    ids=["count", "digest", "failed-job", "missing-workload"],
)
def test_anything_moved_fails_and_is_named(tmp_path, move, names):
    table = json.loads(json.dumps(TABLE))
    move(table)
    done = gate(results_file(tmp_path, table))
    assert done.returncode == 1
    assert f"count gate: {names} committed" in done.stderr
