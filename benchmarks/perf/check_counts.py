"""Exact gate on everything a quick end-to-end run counts.

    python benchmarks/perf/check_counts.py e2e_quick.json

Prints, per workload of a ``bench.py --quick`` results file, the entries that
repeat exactly from run to run (``sim_digests``, ``attempted``, ``failed`` and
every metric whose unit in ``BENCHMARK.json`` is ``count``) and exits 1 where
they differ from ``quick_counts.json`` beside this file.  A change that means
to move one re-records the table by redirecting stdout onto it, which puts the
move in the change's diff.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(results_path: str) -> int:
    manifest = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    counts = [m["name"] for m in manifest["per_layer"] if m["unit"] == "count"]
    table = {}
    for name, w in json.loads(Path(results_path).read_text())["workloads"].items():
        # One traced run, but a jobs_completed per timed run, like the digests.
        traced = {**w["per_layer"], "jobs_completed": w["end_to_end"]["jobs_completed"]["samples"]}
        table[name] = {key: w[key] for key in ("sim_digests", "attempted", "failed")}
        table[name].update((metric, traced[metric]) for metric in counts)
    print(json.dumps(table, indent=1))
    sys.stdout.flush()  # a redirect onto the table is complete before it is read
    committed = json.loads((HERE / "quick_counts.json").read_text())
    was, now = ({(n, e): v for n, w in t.items() for e, v in w.items()} for t in (committed, table))
    moved = [key for key in {**was, **now} if was.get(key) != now.get(key)]
    for key in moved:
        print("count gate:", *key, f"committed {was.get(key)!r}, measured {now.get(key)!r}", file=sys.stderr)
    return 1 if moved else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
