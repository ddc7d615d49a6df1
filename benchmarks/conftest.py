"""Benchmark-harness helpers.

Each figure benchmark regenerates one paper figure at the bench scale its
row of ``repro.experiments.figures.FIGURES`` states, records
the headline numbers in ``benchmark.extra_info`` (visible in pytest-benchmark
JSON output), and prints the paper-vs-measured table.  Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest


@pytest.fixture
def report(benchmark):
    """Attach results to the benchmark record and echo the table."""

    def _report(table: str, **extra) -> None:
        for key, value in extra.items():
            benchmark.extra_info[key] = value
        print("\n" + table)

    return _report
