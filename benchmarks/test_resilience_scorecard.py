"""Resilience: the Fig. 9 workload under the standard fault load.

Acceptance run for the fault-injection subsystem: one node crash, one
endpoint crash, 5 % link loss across the whole run, one corrupt status, and
one 60 s facility-meter outage, injected into the 1-hour-style demand
response workload.  The run must drain with zero ghost job records, the
crash-requeued job must finish, and the 90th-percentile tracking error must
stay within 1.5x of the fault-free run of the identical workload.
"""

from repro.experiments.resilience import format_drill, run_drill, score


def test_resilience_standard_fault_load(benchmark, report):
    result = benchmark.pedantic(
        lambda: run_drill("faults", duration=2400.0, seed=0, warmup=300.0),
        rounds=1,
        iterations=1,
    )
    card = score("faults", result)
    m = result.metrics
    assert m["requeued"], "standard load's node crash should kill a job"
    assert card.all_passed, card.render()

    report(
        format_drill(result) + "\n\n" + card.render(),
        healthy_err90=round(m["healthy_error90"], 4),
        faulted_err90=round(m["faulted_error90"], 4),
        degradation_ratio=round(m["degradation_ratio"], 4),
        requeued=len(m["requeued"]),
        ghost_jobs=m["ghost_jobs"],
    )


def test_fault_log_bit_identical_replay(benchmark, report):
    """Same seed + same schedule ⇒ the fault event log replays exactly."""

    def both():
        a = run_drill("faults", duration=600.0, seed=3, warmup=120.0)
        b = run_drill("faults", duration=600.0, seed=3, warmup=120.0)
        return a, b

    a, b = benchmark.pedantic(both, rounds=1, iterations=1)
    log = a.metrics["fault_log"]
    assert log, "fault log should not be empty"
    assert log == b.metrics["fault_log"]
    assert a.arms["faulted"].result.power_trace.tobytes() == (
        b.arms["faulted"].result.power_trace.tobytes()
    )
    report(
        "\n".join(log),
        log_lines=len(log),
    )
