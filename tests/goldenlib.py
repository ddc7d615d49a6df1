"""Golden-trace scenarios: fixed-seed runs whose outputs are frozen on disk.

The kernel-vectorization work (hwsim batch physics, tabsim table updates,
budgeter caching) is required to be **bit-identical** to the original
per-object implementation.  The scenarios here exercise every rewritten
path — the fig9 end-to-end control loop, the raw hwsim cluster physics with
power-wave and phased job types, and the tabular simulator under both
capping variants — and their traces are recorded to ``tests/golden/*.npz``.

``test_golden_traces.py`` re-runs each scenario and asserts
``np.array_equal`` (not ``allclose``) against the recorded fixture.  To
re-record after an *intentional* behaviour change::

    PYTHONPATH=src:. python -m tests.goldenlib

and commit the updated fixtures together with the change that explains them.

The other oracle the bit-identity suites share lives here too:
:func:`run_windowed_and_stepped` holds ``AnorSystem.run``'s multi-tick
windows to a ``step()``-driven loop of the same system.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path
from unittest.mock import patch

import numpy as np

GOLDEN_DIR = Path(__file__).parent / "golden"


# ------------------------------------------------- the run() ≡ step() oracle


@contextmanager
def count_multi_tick_windows():
    """Counts the physics windows of more than one tick, as runs make them —
    by wrapping the kernel's entry point here, not with a production counter.
    A windowed ≡ per-tick comparison whose windowed arm never batched compares
    the tick loop with itself."""
    from repro.hwsim.cluster import EmulatedCluster

    windows = []
    kernel = EmulatedCluster.advance_stride

    def counting(self, times, dt):
        ticks, totals = kernel(self, times, dt)
        windows.append(ticks)
        return ticks, totals

    with patch.object(EmulatedCluster, "advance_stride", counting):
        yield lambda: sum(1 for ticks in windows if ticks > 1)


def run_windowed_and_stepped(
    build, duration=None, *, until_idle=False, max_time=86_400.0
):
    """Run ``build()``'s system two ways and hand back both for comparison.

    The windowed arm is ``AnorSystem.run``: it asks the event calendar how
    many control-free ticks one physics call may cover.  The stepped arm is
    the per-tick reference: a second ``build()`` driven by ``step()`` (the
    same loop body with zero free ticks) under ``run``'s stop rule, restated
    here.  Asserts the arms really differ in how they advanced — the windowed
    one batched whenever every control period exceeds the tick, the stepped
    one never — and returns ``((system, result), (system, result))``,
    windowed first; what must be equal is the caller's to assert.
    """
    with count_multi_tick_windows() as multi_tick_windows:
        windowed = build()
        windowed_result = windowed.run(duration, until_idle=until_idle, max_time=max_time)
        batched = multi_tick_windows()
        stepped = build()
        clock = stepped.cluster.clock
        start = clock.now
        while True:
            elapsed = clock.now - start
            draining = until_idle and stepped.has_work
            if elapsed >= max_time:
                break
            if (duration is None or elapsed >= duration) and not draining:
                break
            stepped.step()
        # run(0.0) moves nothing: it flushes telemetry and collects the result.
        stepped_result = replace(stepped.run(0.0), duration=clock.now - start)
        assert multi_tick_windows() == batched, "the step() arm batched ticks"
    cfg = windowed.config
    if min(cfg.agent_period, cfg.endpoint_period, cfg.manager_period) > cfg.tick:
        assert batched > 0, "the run() arm never made a multi-tick window"
    return (windowed, windowed_result), (stepped, stepped_result)


def ledger_arrays(completed) -> dict[str, np.ndarray]:
    """Flatten ApplicationTotals records into comparable parallel arrays."""
    records = sorted(completed, key=lambda t: t.job_id)
    return {
        "job_id": np.array([t.job_id for t in records]),
        "job_type": np.array([t.job_type for t in records]),
        "nodes": np.array([t.nodes for t in records], dtype=np.int64),
        "runtime": np.array([t.runtime for t in records], dtype=float),
        "sojourn": np.array([t.sojourn for t in records], dtype=float),
        "energy": np.array([t.energy for t in records], dtype=float),
        "epoch_count": np.array([t.epoch_count for t in records], dtype=np.int64),
        "average_power": np.array([t.average_power for t in records], dtype=float),
    }


# --------------------------------------------------------------- scenarios


def fig9_scenario() -> dict[str, np.ndarray]:
    """Reduced fig9 end-to-end run: full control plane over the emulator."""
    from repro.experiments.fig9 import run_fig9

    fig9 = run_fig9(duration=420.0, seed=1, warmup=60.0)
    out = {"power_trace": fig9.result.power_trace}
    out.update(ledger_arrays(fig9.result.completed))
    return out


def hwsim_physics_scenario() -> dict[str, np.ndarray]:
    """Raw cluster physics: wave/phased job types, variation, cap changes.

    Drives :class:`EmulatedCluster` directly (no control plane) so the
    fixture isolates exactly the vectorized physics kernels: per-rank epoch
    progress, the epoch-periodic power wave, phased types, RAPL capping, and
    idle draw.
    """
    from dataclasses import replace

    from repro.geopm.signals import ControlNames
    from repro.hwsim.cluster import EmulatedCluster
    from repro.workloads.nas import get_job_type
    from repro.workloads.phased import make_two_phase_type

    cluster = EmulatedCluster(8, seed=7, perf_variation_std=0.05)
    wave_type = replace(get_job_type("ft"), power_wave=0.3)
    phased_type = make_two_phase_type(epochs=60, t_uncapped=120.0)
    cluster.start_job("wave-0", wave_type)
    cluster.start_job("phased-0", phased_type)
    cluster.start_job("plain-0", get_job_type("cg"))
    for tick in range(240):
        cluster.clock.advance(1.0)
        if tick == 60:
            # Cap the wave job's nodes mid-run to exercise the capped branch.
            for node in cluster.running["wave-0"].nodes:
                node.pio.write_control(ControlNames.CPU_POWER_LIMIT_CONTROL, 180.0)
        if tick == 120:
            for node in cluster.nodes:
                node.pio.write_control(ControlNames.CPU_POWER_LIMIT_CONTROL, 230.0)
        cluster.advance(1.0)
    out = {
        "power_history": cluster.power_history(),
        "node_energy": np.array([n.total_energy for n in cluster.nodes]),
        "node_caps": np.array([n.power_cap for n in cluster.nodes]),
    }
    out.update(ledger_arrays(cluster.completed))
    return out


def hwsim_wide_scenario() -> dict[str, np.ndarray]:
    """Wide-job physics: a 16-node power-wave job on a mostly-idle cluster.

    Pinned when wide jobs took a batched numpy path of their own; the
    per-node reference (``tests/hwsim_reference.py``) stepped the wave job
    to the same bits after that.  Now the wave job's 16 ranks and the eight
    idle nodes are columns of one ``EmulatedCluster.advance`` pass (a
    one-tick window, the wave read off each rank's progress), so this golden
    holds the kernel's wave to those bits.
    """
    from dataclasses import replace

    from repro.geopm.signals import ControlNames
    from repro.hwsim.cluster import EmulatedCluster
    from repro.workloads.nas import get_job_type

    cluster = EmulatedCluster(24, seed=13, perf_variation_std=0.05)
    wide_type = replace(get_job_type("ft"), nodes=16, power_wave=0.2)
    cluster.start_job("wide-0", wide_type)
    for tick in range(180):
        cluster.clock.advance(1.0)
        if tick == 50:
            for node in cluster.running["wide-0"].nodes:
                node.pio.write_control(ControlNames.CPU_POWER_LIMIT_CONTROL, 210.0)
        cluster.advance(1.0)
    out = {
        "power_history": cluster.power_history(),
        "node_energy": np.array([n.total_energy for n in cluster.nodes]),
        "node_caps": np.array([n.power_cap for n in cluster.nodes]),
    }
    out.update(ledger_arrays(cluster.completed))
    return out


def _tabsim_run(
    *,
    variation_band: float,
    qos_aware: bool,
    work_conserving: bool,
    power_aware_admission: bool,
    seed: int,
) -> dict[str, np.ndarray]:
    from repro.aqa.regulation import BoundedRandomWalkSignal
    from repro.tabsim.simulator import SimConfig, TabularClusterSimulator
    from repro.tabsim.tables import SimJobType
    from repro.workloads.generator import PoissonScheduleGenerator
    from repro.workloads.nas import long_running_mix

    base_types = long_running_mix()
    sim_types = [SimJobType.from_job_type(jt, node_scale=6) for jt in base_types]
    scaled = [jt.scaled_nodes(6) for jt in base_types]
    generator = PoissonScheduleGenerator(
        scaled, utilization=0.8, total_nodes=300, seed=seed
    )
    schedule = generator.generate(900.0)
    signal = BoundedRandomWalkSignal(900.0 * 4, step=4.0, seed=seed + 1)
    config = SimConfig(
        num_nodes=300,
        average_power=54_000.0,
        reserve=7_500.0,
        variation_band=variation_band,
        qos_aware_capping=qos_aware,
        work_conserving=work_conserving,
        power_aware_admission=power_aware_admission,
        seed=seed + 2,
    )
    sim = TabularClusterSimulator(sim_types, schedule, signal, config)
    result = sim.run(900.0, drain=True)
    jobs = result.job_table.snapshot()
    return {
        "power_trace": result.power_trace,
        "job_type_idx": jobs["type_idx"],
        "job_nodes": jobs["nodes"],
        "job_submit": jobs["submit_time"],
        "job_start": jobs["start_time"],
        "job_end": jobs["end_time"],
        "job_state": jobs["state"],
        "node_progress": sim.nodes.progress,
        "node_caps": sim.nodes.cap,
    }


def tabsim_uniform_scenario() -> dict[str, np.ndarray]:
    """Variation + power-aware admission, plain uniform capping."""
    return _tabsim_run(
        variation_band=0.08,
        qos_aware=False,
        work_conserving=False,
        power_aware_admission=True,
        seed=11,
    )


def tabsim_qos_scenario() -> dict[str, np.ndarray]:
    """QoS-aware capping + work-conserving scheduler."""
    return _tabsim_run(
        variation_band=0.0,
        qos_aware=True,
        work_conserving=True,
        power_aware_admission=False,
        seed=23,
    )


SCENARIOS = {
    "fig9": fig9_scenario,
    "hwsim_physics": hwsim_physics_scenario,
    "hwsim_wide": hwsim_wide_scenario,
    "tabsim_uniform": tabsim_uniform_scenario,
    "tabsim_qos": tabsim_qos_scenario,
}


def record_all(directory: Path | None = None, names: list[str] | None = None) -> None:
    directory = directory or GOLDEN_DIR
    directory.mkdir(parents=True, exist_ok=True)
    for name in names or sorted(SCENARIOS):
        arrays = SCENARIOS[name]()
        path = directory / f"{name}.npz"
        np.savez_compressed(path, **arrays)
        print(f"recorded {path} ({path.stat().st_size} bytes, {len(arrays)} arrays)")


if __name__ == "__main__":
    import sys

    record_all(names=sys.argv[1:] or None)
